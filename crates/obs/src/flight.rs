//! Flight recorder: when something goes wrong (worker panic, breaker
//! trip) the bus marks its log, so a chaos failure arrives with its
//! last-N-events context attached. A dump is a mark, not a copy: it
//! reads back from the log as the 256 events before it.

use crate::event::Event;

/// One dump read back from the log: the reason it was taken plus the
/// latest 256 events logged before it, oldest first.
#[derive(Debug, Clone)]
pub struct FlightDump {
    pub reason: String,
    pub events: Vec<Event>,
}

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
