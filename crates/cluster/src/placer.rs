//! Pure placement policy: where does a batch go, and when does a steal
//! pay off?
//!
//! Both decisions are driven entirely by the analytical simulator — the
//! same model the paper uses to choose tilings and batchings chooses the
//! device here. Keeping the policy pure (no locks, no atomics, plain
//! values in, a ranking or a verdict out) makes it exhaustively testable
//! without spinning up a cluster.

/// Whether placement folds the locality routing penalty into candidate
/// ranking. Enabled by default — the penalty is *exactly* `0.0` on
/// single-chiplet pools (see `ctb_sim::locality_penalty_us`), so the
/// default changes nothing until a multi-chiplet device enters the
/// pool. The locality-blind arm of `reproduce locality` disables it to
/// measure what the penalty buys; residency and remote-traffic
/// *accounting* stay on either way so the arms are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalityPolicy {
    pub enabled: bool,
}

ctb_savestate::savestate_struct!(LocalityPolicy { enabled });

impl Default for LocalityPolicy {
    fn default() -> Self {
        LocalityPolicy { enabled: true }
    }
}

impl LocalityPolicy {
    /// The locality-blind policy (pre-chiplet behaviour, and the
    /// baseline arm of the locality bench).
    pub fn blind() -> Self {
        LocalityPolicy { enabled: false }
    }
}

/// One device's bid for a batch, as seen at placement time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Cluster-wide device id.
    pub device: usize,
    /// Simulated microseconds of work already queued or running on the
    /// device (advisory — completions race it — but conservative).
    pub backlog_us: f64,
    /// Simulated microseconds the batch itself would take on the
    /// device, from the per-arch cost model (memoized).
    pub predicted_us: f64,
    /// Locality routing penalty, µs: the interposer-crossing cost of
    /// staging the batch's operands onto this device when they are not
    /// already resident there. Exactly `0.0` for resident devices, for
    /// monolithic topologies, and under a blind [`LocalityPolicy`] —
    /// and *never* part of [`Candidate::predicted_us`], so the charged
    /// execution time (and the zero-placement-error invariant) is
    /// untouched by locality: the penalty only re-ranks candidates.
    pub penalty_us: f64,
}

impl Candidate {
    /// Predicted completion time: everything ahead of the batch plus
    /// the batch itself.
    pub fn completion_us(&self) -> f64 {
        self.backlog_us + self.predicted_us
    }

    /// Ranking score: completion plus the locality routing penalty.
    /// With a zero penalty this is bitwise `completion_us()` (adding
    /// `0.0` to a non-negative finite f64 is the identity), which is
    /// what pins single-chiplet pools to the historical decisions.
    pub fn score_us(&self) -> f64 {
        self.completion_us() + self.penalty_us
    }
}

/// Order a full candidate slate best-first: ascending penalty-adjusted
/// completion, ties toward the lower device id (pools are
/// fastest-first, so ties prefer the stronger device). `rank(..)[0]` is
/// the placement; the tail is the spill-down order a placer walks when
/// better queues are full or sidelined. The exact placement scan walks
/// this ranking, and the indexed path is tested against it.
pub fn rank(mut candidates: Vec<Candidate>) -> Vec<Candidate> {
    candidates.sort_by(|a, b| a.score_us().total_cmp(&b.score_us()).then(a.device.cmp(&b.device)));
    candidates
}

/// Should an idle thief take the victim's front batch?
///
/// Yes when the victim is saturated enough to bother
/// (`victim_backlog_us` at or above the policy floor — stealing a batch
/// from a nearly-idle device wastes the transfer for no makespan gain)
/// and running the batch on the thief finishes before the batch would
/// even *start* on the victim (its whole backlog is ahead of it). Under
/// that test a slow M60 only relieves a saturated V100 when the model
/// says the M60 genuinely shortens the batch's completion.
pub fn steal_beneficial(
    victim_backlog_us: f64,
    predicted_on_thief_us: f64,
    min_victim_backlog_us: f64,
) -> bool {
    victim_backlog_us >= min_victim_backlog_us && predicted_on_thief_us < victim_backlog_us
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(device: usize, backlog_us: f64, predicted_us: f64) -> Candidate {
        Candidate { device, backlog_us, predicted_us, penalty_us: 0.0 }
    }

    fn cp(device: usize, backlog_us: f64, predicted_us: f64, penalty_us: f64) -> Candidate {
        Candidate { device, backlog_us, predicted_us, penalty_us }
    }

    /// The device a placement lands on: the head of the ranking.
    fn best(slate: &[Candidate]) -> Option<usize> {
        rank(slate.to_vec()).first().map(|c| c.device)
    }

    #[test]
    fn chooses_minimum_completion_not_minimum_predicted() {
        // Device 0 runs the batch faster but is saturated; device 1 is
        // slower per-batch yet finishes sooner overall.
        let got = best(&[c(0, 1000.0, 10.0), c(1, 0.0, 25.0)]);
        assert_eq!(got, Some(1));
    }

    #[test]
    fn idle_pool_routes_to_the_fastest_device() {
        let got = best(&[c(0, 0.0, 10.0), c(1, 0.0, 12.0), c(2, 0.0, 30.0)]);
        assert_eq!(got, Some(0));
    }

    #[test]
    fn ties_break_toward_the_lower_id() {
        assert_eq!(best(&[c(2, 5.0, 5.0), c(1, 0.0, 10.0)]), Some(1));
        assert_eq!(best(&[c(1, 0.0, 10.0), c(2, 5.0, 5.0)]), Some(1));
    }

    #[test]
    fn empty_slate_has_no_placement() {
        assert_eq!(best(&[]), None);
    }

    #[test]
    fn singleton_always_wins() {
        assert_eq!(best(&[c(3, 99.0, 1.0)]), Some(3));
    }

    #[test]
    fn rank_orders_the_spill_best_first() {
        let ranked = rank(vec![c(2, 5.0, 5.0), c(0, 1000.0, 10.0), c(1, 0.0, 25.0)]);
        let order: Vec<usize> = ranked.iter().map(|x| x.device).collect();
        assert_eq!(order, vec![2, 1, 0]);
        // Ties break toward the lower id at every rank, not just the head.
        let tied = rank(vec![c(3, 0.0, 10.0), c(1, 5.0, 5.0), c(2, 10.0, 0.0)]);
        let order: Vec<usize> = tied.iter().map(|x| x.device).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn zero_penalty_scoring_is_bitwise_completion() {
        // penalty 0.0 leaves score == completion down to the bits, so a
        // single-chiplet pool ranks exactly as the pre-locality placer.
        for cand in [c(0, 0.1 + 0.2, 17.3), c(1, 1e9, 5e-3), c(2, 0.0, 0.0)] {
            assert_eq!(cand.score_us().to_bits(), cand.completion_us().to_bits());
        }
    }

    #[test]
    fn penalty_re_ranks_without_touching_predictions() {
        // Device 0 completes sooner, but its operands are remote; the
        // resident device 1 wins once the crossing cost outweighs the
        // completion gap.
        let slate = vec![cp(0, 0.0, 10.0, 6.0), cp(1, 0.0, 12.0, 0.0)];
        assert_eq!(best(&slate), Some(1));
        // A small penalty that doesn't close the gap changes nothing.
        let slate = vec![cp(0, 0.0, 10.0, 1.0), cp(1, 0.0, 12.0, 0.0)];
        assert_eq!(best(&slate), Some(0));
        // Ties on score still break toward the lower id.
        let slate = vec![cp(1, 0.0, 12.0, 0.0), cp(0, 0.0, 10.0, 2.0)];
        assert_eq!(best(&slate), Some(0));
        // And rank orders the spill by the same score.
        let ranked =
            rank(vec![cp(0, 0.0, 10.0, 6.0), cp(1, 0.0, 12.0, 0.0), cp(2, 0.0, 11.0, 9.0)]);
        let order: Vec<usize> = ranked.iter().map(|x| x.device).collect();
        assert_eq!(order, vec![1, 0, 2]);
    }

    #[test]
    fn locality_policy_defaults_on_and_blind_disables() {
        assert!(LocalityPolicy::default().enabled);
        assert!(!LocalityPolicy::blind().enabled);
    }

    #[test]
    fn steal_requires_a_saturated_victim() {
        // Victim below the floor: never steal, even if the thief is fast.
        assert!(!steal_beneficial(10.0, 1.0, 50.0));
        // Saturated victim, thief beats the wait: steal.
        assert!(steal_beneficial(100.0, 30.0, 50.0));
        // Saturated victim but the thief is slower than the wait: the
        // batch is better off staying queued.
        assert!(!steal_beneficial(100.0, 150.0, 50.0));
        // Boundary: thief time equal to the wait is not a win.
        assert!(!steal_beneficial(100.0, 100.0, 50.0));
        // Boundary: backlog exactly at the floor qualifies.
        assert!(steal_beneficial(50.0, 10.0, 50.0));
    }
}
