//! Request/response types of the serving layer.

use ctb_matrix::{GemmShape, MatF32};
use std::sync::mpsc;
use std::time::Duration;

/// One GEMM submitted to the server: `C = alpha * A * B + beta * C`.
///
/// Requests are independent — each carries its own scalars and buffers.
/// The batcher coalesces concurrently queued requests that share an
/// `(alpha, beta)` pair into a single [`ctb_matrix::GemmBatch`] (the
/// batch type has one scalar pair for the whole batch); requests with
/// distinct scalars in the same window simply form separate batches.
#[derive(Debug, Clone)]
pub struct GemmRequest {
    pub a: MatF32,
    pub b: MatF32,
    pub c: MatF32,
    pub alpha: f32,
    pub beta: f32,
    /// Drop the request (completing it with [`ServeError::Expired`])
    /// if it has waited in the admission queue longer than this by the
    /// time a batch is formed. The wait is measured in whole
    /// microseconds of the server clock, from the request's admission
    /// stamp: simulated time under a `SimClock` bus, wall time
    /// otherwise. `None` waits indefinitely.
    pub deadline: Option<Duration>,
}

impl GemmRequest {
    /// A request with default scalars (`alpha = 1`, `beta = 0`) and no
    /// deadline. `c` is implied all-zeros of the output shape.
    pub fn new(a: MatF32, b: MatF32) -> Self {
        let c = MatF32::zeros(a.rows(), b.cols());
        GemmRequest { a, b, c, alpha: 1.0, beta: 0.0, deadline: None }
    }

    /// The `(M, N, K)` of this request.
    pub fn shape(&self) -> GemmShape {
        GemmShape::new(self.c.rows(), self.c.cols(), self.a.cols())
    }

    /// Validate buffer-shape consistency; mirrors what
    /// [`ctb_matrix::GemmBatch::validate`] would reject later, but at
    /// admission time so the submitter gets the error synchronously.
    pub fn validate(&self) -> Result<(), String> {
        let s = self.shape();
        if s.m == 0 || s.n == 0 {
            return Err("GEMM with empty output matrix".into());
        }
        if (self.a.rows(), self.a.cols()) != (s.m, s.k) {
            return Err(format!(
                "A is {}x{}, expected {}x{}",
                self.a.rows(),
                self.a.cols(),
                s.m,
                s.k
            ));
        }
        if (self.b.rows(), self.b.cols()) != (s.k, s.n) {
            return Err(format!(
                "B is {}x{}, expected {}x{}",
                self.b.rows(),
                self.b.cols(),
                s.k,
                s.n
            ));
        }
        Ok(())
    }
}

/// Why a request did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Request failed validation at submit time.
    Invalid(String),
    /// The server no longer accepts requests.
    ShuttingDown,
    /// The request out-waited its deadline in the admission queue.
    Expired,
    /// Planning the coalesced batch failed (server-side bug surface).
    PlanFailed(String),
    /// A worker panicked executing this request and every recovery path
    /// (retry, degraded baseline) was exhausted. The panic was isolated:
    /// the worker survived and batch-mates were re-admitted separately.
    WorkerPanic(String),
    /// [`Ticket::wait_for`] gave up before the server completed the
    /// request. The request is still in flight server-side; its
    /// eventual response is counted as abandoned.
    WaitTimeout,
    /// The server dropped the response channel without completing the
    /// request — must not happen while the drain contract holds.
    Disconnected,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Expired => write!(f, "deadline expired in queue"),
            ServeError::PlanFailed(m) => write!(f, "planning failed: {m}"),
            ServeError::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            ServeError::WaitTimeout => write!(f, "gave up waiting for the response"),
            ServeError::Disconnected => write!(f, "server dropped the request"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-request latency breakdown in whole microseconds of the server
/// clock, which stamps and times every request: the bus's clock when one
/// is installed, a wall clock otherwise. This is the one record of what
/// a request paid: it comes back on the response, the trace's `Respond`
/// point carries the same four numbers, and the server keeps no copy.
/// The batching window, the retry backoff and an injected slow-worker
/// stall wait on wall time; under a simulated clock they add nothing
/// here.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RequestTiming {
    /// Submission until the batch containing the request started
    /// planning (admission queue + batching window).
    pub queue_us: f64,
    /// Plan lookup/computation for the coalesced batch (shared by all
    /// of its requests; ~0 on a plan-cache hit).
    pub plan_us: f64,
    /// Functional execution of the coalesced batch.
    pub exec_us: f64,
    /// Number of requests coalesced into the batch that carried this
    /// one (1 = no coalescing happened).
    pub batch_size: usize,
}

impl RequestTiming {
    /// End-to-end latency: queueing + planning + execution.
    pub fn total_us(&self) -> f64 {
        self.queue_us + self.plan_us + self.exec_us
    }
}

/// A completed request: the computed `C` plus its latency breakdown.
#[derive(Debug, Clone)]
pub struct GemmResult {
    pub c: MatF32,
    pub timing: RequestTiming,
    /// `true` when the result came from the degraded per-kernel
    /// baseline executor (plan failure, exhausted retries, or an open
    /// circuit breaker) rather than the coordinated path. Degraded
    /// results are still bitwise-exact — both executors replay the
    /// identical ascending-k accumulation per GEMM.
    pub degraded: bool,
}

/// Handle to one in-flight request, returned by
/// [`crate::Server::submit`]. Wait on it from the submitting thread.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Result<GemmResult, ServeError>>,
}

impl Ticket {
    /// Block until the server completes the request.
    pub fn wait(self) -> Result<GemmResult, ServeError> {
        self.rx.recv().map_err(|_| ServeError::Disconnected)?
    }

    /// Block at most `timeout` for the response. On timeout the ticket
    /// is consumed and [`ServeError::WaitTimeout`] is returned; the
    /// server still completes the request (its response is then counted
    /// in [`crate::ServeStats::abandoned`]). This is the bounded wait
    /// the chaos suite uses to turn a would-be hang into a test failure.
    pub fn wait_for(self, timeout: Duration) -> Result<GemmResult, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(ServeError::Disconnected),
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn poll(&self) -> Option<Result<GemmResult, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shape_and_validation() {
        let r = GemmRequest::new(MatF32::random(4, 6, 1), MatF32::random(6, 5, 2));
        assert_eq!(r.shape(), GemmShape::new(4, 5, 6));
        r.validate().expect("consistent request");

        let bad = GemmRequest { b: MatF32::random(7, 5, 3), ..r.clone() };
        assert!(bad.validate().is_err());

        let empty = GemmRequest::new(MatF32::zeros(0, 3), MatF32::zeros(3, 2));
        assert!(empty.validate().unwrap_err().contains("empty output"));
    }

    #[test]
    fn k_zero_requests_are_admissible() {
        // K = 0 is beta-scaling only; the planner supports it, so the
        // server must admit it.
        let r = GemmRequest::new(MatF32::zeros(3, 0), MatF32::zeros(0, 4));
        r.validate().expect("K=0 is valid");
    }

    #[test]
    fn timing_totals_add_up() {
        let t = RequestTiming { queue_us: 10.0, plan_us: 2.5, exec_us: 7.5, batch_size: 4 };
        assert_eq!(t.total_us(), 20.0);
    }
}
