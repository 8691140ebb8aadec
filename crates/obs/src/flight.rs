//! Flight recorder: a bounded ring of the most recent events, dumped
//! when something goes wrong (worker panic, breaker trip) so a chaos
//! failure arrives with its last-N-events context attached.

use crate::event::Event;

/// One captured ring: the reason it was dumped plus the events that
/// were in the ring at that instant, oldest first.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub reason: String,
    pub events: Vec<Event>,
}

ctb_savestate::savestate_struct!(FlightDump { reason, events });

impl FlightDump {
    /// Human-readable rendering for panic messages and logs.
    pub fn render(&self) -> String {
        let mut out =
            format!("flight recorder dump ({}): {} events\n", self.reason, self.events.len());
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        out
    }
}
