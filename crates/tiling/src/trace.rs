//! Traced tiling selection: the same §4.2.3 algorithm as
//! [`crate::select::select_tiling`], additionally recording every round
//! of the TLP walk so tools (and tests) can explain *why* a strategy was
//! chosen. The paper's worked example is literally one of these traces.

use crate::select::{select_tiling_with, TilingSolution};
use crate::strategy::{StrategyKind, ThreadCount};
use ctb_gpu_specs::Thresholds;
use ctb_matrix::GemmShape;

/// One round of the selection walk.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRound {
    /// Thread-count version this round ran under.
    pub thread_count: ThreadCount,
    /// The candidate solution (strategy kind per GEMM).
    pub kinds: Vec<StrategyKind>,
    /// Its aggregate TLP (Eq 1).
    pub tlp: u64,
    /// Whether this round was accepted (TLP ≤ threshold).
    pub accepted: bool,
}

/// A full selection trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionTrace {
    pub threshold: u64,
    pub rounds: Vec<TraceRound>,
    /// Index of the accepted round (always the last one).
    pub chosen: usize,
}

impl SelectionTrace {
    /// Human-readable rendering of the walk (the §4.2.3 narrative).
    pub fn render(&self, shapes: &[GemmShape]) -> String {
        let mut out = format!(
            "GEMMs: {}  (TLP threshold {})\n",
            shapes.iter().map(|s| s.to_string()).collect::<Vec<_>>().join(", "),
            self.threshold
        );
        for (i, r) in self.rounds.iter().enumerate() {
            let kinds: Vec<String> = r.kinds.iter().map(|k| k.to_string()).collect();
            out.push_str(&format!(
                "round {} [{}T]: ({})  TLP = {}  -> {}\n",
                i + 1,
                r.thread_count.threads(),
                kinds.join(", "),
                r.tlp,
                if r.accepted {
                    "accept"
                } else if r.tlp > self.threshold {
                    "above threshold, enlarge tiles"
                } else {
                    "exhausted"
                }
            ));
        }
        out
    }
}

/// Run the §4.2.3 selection while recording the full walk. The returned
/// solution is [`crate::select::select_tiling`]'s: both run the same
/// pass.
pub fn select_tiling_traced(
    shapes: &[GemmShape],
    thresholds: &Thresholds,
) -> (TilingSolution, SelectionTrace) {
    let mut rounds = Vec::new();
    let solution =
        select_tiling_with(shapes, thresholds, &mut |thread_count, current, tlp, accepted| {
            let kinds = current.iter().map(|s| s.kind).collect();
            rounds.push(TraceRound { thread_count, kinds, tlp, accepted });
        });
    let chosen = rounds.len() - 1;
    let trace = SelectionTrace { threshold: thresholds.tlp_threshold, rounds, chosen };
    (solution, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::select_tiling;

    fn worked_example() -> Vec<GemmShape> {
        vec![
            GemmShape::new(16, 32, 128),
            GemmShape::new(64, 64, 64),
            GemmShape::new(256, 256, 64),
        ]
    }

    #[test]
    fn trace_matches_the_paper_narrative() {
        let (sol, trace) = select_tiling_traced(&worked_example(), &Thresholds::paper_v100());
        assert_eq!(trace.rounds.len(), 2);
        assert_eq!(trace.rounds[0].tlp, 70_144);
        assert!(!trace.rounds[0].accepted);
        assert_eq!(trace.rounds[1].tlp, 17_920);
        assert!(trace.rounds[1].accepted);
        assert_eq!(sol.tlp, 17_920);
        let text = trace.render(&worked_example());
        assert!(text.contains("70144") && text.contains("17920"), "{text}");
        assert!(text.contains("accept"));
    }

    #[test]
    fn traced_solution_equals_untraced_everywhere() {
        let th = Thresholds::paper_v100();
        for seed in 0..30u64 {
            let shapes = ctb_matrix::gen::random_case(seed);
            let (traced, trace) = select_tiling_traced(&shapes, &th);
            let plain = select_tiling(&shapes, &th);
            assert_eq!(traced, plain, "seed {seed}");
            // Exactly the final round is flagged accepted (or none when
            // both passes exhausted).
            let accepted: Vec<usize> = trace
                .rounds
                .iter()
                .enumerate()
                .filter(|(_, r)| r.accepted)
                .map(|(i, _)| i)
                .collect();
            assert!(accepted.len() <= 1);
            if let Some(&i) = accepted.first() {
                assert_eq!(i, trace.chosen);
            }
        }
    }

    #[test]
    fn exhaustion_falls_back_to_128_thread_huge() {
        let shapes = vec![GemmShape::new(2048, 2048, 64); 16];
        let (sol, trace) = select_tiling_traced(&shapes, &Thresholds::paper_v100());
        assert_eq!(sol, select_tiling(&shapes, &Thresholds::paper_v100()));
        // The walk visits both thread versions.
        assert!(trace.rounds.iter().any(|r| r.thread_count == ThreadCount::T256));
        assert!(trace.rounds.iter().any(|r| r.thread_count == ThreadCount::T128));
        assert!(trace.rounds.iter().all(|r| !r.accepted));
    }
}
