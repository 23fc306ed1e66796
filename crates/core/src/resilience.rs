//! Branch resilience: deadlines, retry with backoff, replica failover,
//! circuit breakers, hedged requests, graceful degradation.
//!
//! The paper's mediator scatters sub-queries to many servers and gathers
//! partials; in a real grid some of those servers are down, flaky, or
//! slow. This module wraps every scatter branch in a policy-driven
//! supervision loop ([`Resilience::run_branch`]):
//!
//! 1. **Circuit breaker admission** — a per-server-URL breaker
//!    (closed → open → half-open) refuses dispatch to a server that has
//!    failed repeatedly, until a cooldown elapses.
//! 2. **Bounded retry** — retryable faults (crashed/transient servers,
//!    unreachable links) are retried up to `max_retries` times with
//!    exponential backoff plus deterministic jitter. Sleeps are *virtual*:
//!    the branch's thread-local clock offset advances, so a retry can ride
//!    out a crash window without any wall-clock waiting.
//! 3. **Deadline** — a branch that cannot finish inside its per-branch
//!    deadline gives up rather than retrying forever.
//! 4. **Hedging** — optionally, a completed-but-slow branch is raced
//!    against a duplicate request to the failover candidate and the
//!    faster result wins (tail-latency insurance).
//! 5. **Failover** — when the primary target is exhausted, the branch is
//!    re-routed to the next replica (another local copy, or another RLS
//!    server hosting the tables).
//! 6. **Degradation** — if everything fails, [`DegradationPolicy::Strict`]
//!    fails the query with a typed error; [`DegradationPolicy::Partial`]
//!    substitutes an empty placeholder partial and annotates the result
//!    with the dropped branch and the reason, so callers get an *honest*
//!    partial answer, never a silently wrong one.
//!
//! All decisions are deterministic: jitter comes from a hash of the target
//! and attempt number, faults from the seeded plan, and time from the
//! shared virtual clock.

use crate::error::CoreError;
use crate::federate::Partial;
use crate::Result;
use gridfed_faults::VirtualClock;
pub use gridfed_obs::{AttemptKind, AttemptRecord};
use gridfed_simnet::Cost;
use parking_lot::Mutex;
use std::collections::HashMap;

/// What to do when a branch stays down through retries and failover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Fail the whole query with a typed error (default).
    #[default]
    Strict,
    /// Drop the branch: substitute an empty partial, annotate the result
    /// with the dropped branch and reason, and keep going.
    Partial,
}

/// Knobs for the branch supervision loop. The default is a **passthrough**:
/// no retries, no breaker, no deadline, no hedging, Strict degradation —
/// exactly the pre-resilience behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// Retries after the first attempt (0 = single attempt).
    pub max_retries: u32,
    /// First backoff duration; doubles each retry.
    pub base_backoff: Cost,
    /// Backoff ceiling.
    pub max_backoff: Cost,
    /// Virtual cost charged per failed attempt (error detection +
    /// teardown) on top of backoff.
    pub failure_penalty: Cost,
    /// Give up on a branch once its accrued time would exceed this.
    pub branch_deadline: Option<Cost>,
    /// When a completed branch took longer than this, race a duplicate
    /// request against the failover candidate and keep the faster result.
    pub hedge_after: Option<Cost>,
    /// Consecutive failures that trip a server's breaker open
    /// (0 = breaker disabled).
    pub breaker_threshold: u32,
    /// How long an open breaker refuses dispatch before half-opening.
    pub breaker_cooldown: Cost,
    /// Strict (fail query) vs Partial (drop branch, annotate).
    pub degradation: DegradationPolicy,
    /// Whether to fail over to the next replica on retry exhaustion.
    pub failover: bool,
}

impl Default for ResilienceConfig {
    fn default() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 0,
            base_backoff: Cost::ZERO,
            max_backoff: Cost::ZERO,
            failure_penalty: Cost::ZERO,
            branch_deadline: None,
            hedge_after: None,
            breaker_threshold: 0,
            breaker_cooldown: Cost::ZERO,
            degradation: DegradationPolicy::Strict,
            failover: false,
        }
    }
}

impl ResilienceConfig {
    /// A sensible production-ish profile: 3 retries (8 ms base backoff,
    /// 200 ms cap, 2 ms failure penalty), failover on, breaker trips after
    /// 4 consecutive failures with a 500 ms cooldown, Strict degradation.
    pub fn standard() -> ResilienceConfig {
        ResilienceConfig {
            max_retries: 3,
            base_backoff: Cost::from_millis(8),
            max_backoff: Cost::from_millis(200),
            failure_penalty: Cost::from_millis(2),
            branch_deadline: None,
            hedge_after: None,
            breaker_threshold: 4,
            breaker_cooldown: Cost::from_millis(500),
            degradation: DegradationPolicy::Strict,
            failover: true,
        }
    }

    /// Whether any knob departs from the passthrough default.
    pub fn enabled(&self) -> bool {
        *self != ResilienceConfig::default()
    }
}

/// What one successful branch attempt produced, with its costs split so
/// the mediator can keep its connect-summed / execute-par-composed
/// accounting.
#[derive(Debug, Clone, Default)]
pub struct BranchYield {
    /// Fetched partials, in task order.
    pub partials: Vec<Partial>,
    /// [`Partial::wire_size`] of each, sized once where it was fetched.
    pub partial_bytes: Vec<usize>,
    /// Connection/login setup cost (summed across branches by the caller —
    /// the serialized-DriverManager model behind Table 1).
    pub connect_cost: Cost,
    /// Sub-query execution + transfer cost (par-composed by the caller).
    pub exec_cost: Cost,
    /// RLS consultation cost (failover re-resolution happens inside the
    /// branch; charged to the breakdown's `rls` bucket).
    pub rls_cost: Cost,
    /// RLS lookups performed inside the branch.
    pub rls_lookups: usize,
    /// Fresh connections opened.
    pub connections_opened: usize,
    /// Branch links that were already open: a pooled POOL-RAL handle or a
    /// kept JDBC connection reused.
    pub pooled_hits: usize,
    /// Sub-queries forwarded to remote Clarens servers.
    pub remote_forwards: usize,
    /// Per-hop [`QueryStats`] reported by remote mediators this branch
    /// called, merged into the caller's counters at gather time so work
    /// behind the RPC boundary is not lost.
    ///
    /// [`QueryStats`]: crate::stats::QueryStats
    pub remote_stats: Vec<crate::stats::QueryStats>,
    /// Span lists returned by remote mediators (one per RPC hop), grafted
    /// into the caller's trace when tracing is on.
    pub remote_traces: Vec<Vec<gridfed_obs::Span>>,
}

/// Resilience events observed while supervising one branch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BranchEvents {
    /// Failed attempts that were retried.
    pub retries: usize,
    /// Failovers attempted to the alternate target.
    pub failovers: usize,
    /// Hedged duplicates whose result was preferred.
    pub hedges: usize,
    /// Breakers tripped open by this branch's failures.
    pub breaker_opens: usize,
    /// Dispatches refused by an already-open breaker.
    pub breaker_rejections: usize,
    /// `Some(reason)` when the branch was dropped under the Partial
    /// policy.
    pub dropped: Option<String>,
    /// The primary target, when every attempt against it failed — the
    /// caller reports it to the RLS as unreachable.
    pub exhausted_target: Option<String>,
}

/// The supervised outcome of one branch.
#[derive(Debug, Clone, Default)]
pub struct BranchReport {
    /// The (possibly placeholder) yield.
    pub output: BranchYield,
    /// Extra critical-path virtual time spent on supervision: backoff
    /// waits, failed-attempt penalties, hedge waits.
    pub resilience_cost: Cost,
    /// What happened along the way.
    pub events: BranchEvents,
    /// Every physical attempt in timeline order — the child spans of the
    /// branch in a query trace.
    pub attempts: Vec<AttemptRecord>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed { fails: u32 },
    Open { until: Cost },
    HalfOpen,
}

/// A branch that failed outright. Its report never reaches the caller, so
/// the supervision time it accrued first — backoff waits and failure
/// penalties — travels with the error: the query that ran the branch
/// charges it and advances the clock by it. A failing query that charged
/// nothing would freeze the virtual clock, and an open breaker could never
/// reach its cooldown.
#[derive(Debug)]
pub struct BranchFailure {
    /// Why the branch failed.
    pub error: CoreError,
    /// Supervision time accrued before it did.
    pub resilience_cost: Cost,
}

/// Shared per-service resilience state: one circuit breaker per server
/// URL. The knobs are the query's own ([`Resilience::run_branch`] is handed
/// them), so every branch of a query is supervised alike.
#[derive(Debug, Default)]
pub struct Resilience {
    breakers: Mutex<HashMap<String, BreakerState>>,
}

impl Resilience {
    /// No breakers tripped.
    pub fn new() -> Resilience {
        Resilience::default()
    }

    /// Human-readable breaker state for a target (for EXPLAIN).
    pub fn breaker_state(&self, target: &str) -> &'static str {
        match self.breakers.lock().get(target) {
            None | Some(BreakerState::Closed { .. }) => "closed",
            Some(BreakerState::Open { .. }) => "open",
            Some(BreakerState::HalfOpen) => "half-open",
        }
    }

    /// Reset every breaker to closed (test/driver control).
    pub fn reset_breakers(&self) {
        self.breakers.lock().clear();
    }

    /// Supervise one scatter branch.
    ///
    /// `attempt` performs the branch's work against the primary `target`
    /// (connect + sub-queries); `failover` (when the config allows it)
    /// fetches the same data from the next replica; `placeholder` builds the
    /// empty-partials substitute, and is called only when the Partial
    /// degradation policy drops the branch.
    /// Each attempt runs under a thread-local clock offset equal to the
    /// branch's accrued resilience cost, so fault windows interact with
    /// backoff exactly as they would in real time.
    #[allow(clippy::too_many_arguments)]
    pub fn run_branch(
        &self,
        cfg: &ResilienceConfig,
        clock: &VirtualClock,
        label: &str,
        target: &str,
        attempt: &mut dyn FnMut() -> Result<BranchYield>,
        mut failover: Option<&mut dyn FnMut() -> Result<BranchYield>>,
        placeholder: &dyn Fn() -> Option<Vec<Partial>>,
    ) -> std::result::Result<BranchReport, BranchFailure> {
        let mut events = BranchEvents::default();
        let mut attempts: Vec<AttemptRecord> = Vec::new();
        let mut resil = Cost::ZERO;
        let mut last_err: Option<CoreError> = None;
        let mut attempts_made: u32 = 0;

        if !self.admit(cfg, target, clock.now()) {
            events.breaker_rejections += 1;
            let err = CoreError::CircuitOpen {
                target: target.to_string(),
            };
            attempts.push(AttemptRecord {
                kind: AttemptKind::BreakerRejected,
                start: Cost::ZERO,
                duration: Cost::ZERO,
                error: Some(err.to_string()),
            });
            last_err = Some(err);
        } else {
            let max_attempts = cfg.max_retries.saturating_add(1);
            while attempts_made < max_attempts {
                if let Some(deadline) = cfg.branch_deadline {
                    if resil >= deadline {
                        last_err = Some(CoreError::DeadlineExceeded {
                            branch: label.to_string(),
                            deadline,
                        });
                        break;
                    }
                }
                attempts_made += 1;
                let attempt_kind = if attempts_made == 1 {
                    AttemptKind::Primary
                } else {
                    AttemptKind::Retry
                };
                let attempt_start = resil;
                match clock.with_offset(resil, &mut *attempt) {
                    Ok(mut output) => {
                        if let Some(deadline) = cfg.branch_deadline {
                            let total = resil + output.connect_cost + output.exec_cost;
                            if total > deadline {
                                last_err = Some(CoreError::DeadlineExceeded {
                                    branch: label.to_string(),
                                    deadline,
                                });
                                break;
                            }
                        }
                        self.record_success(cfg, target);
                        attempts.push(AttemptRecord {
                            kind: attempt_kind,
                            start: attempt_start,
                            duration: output.connect_cost + output.exec_cost,
                            error: None,
                        });
                        if let (Some(hedge_after), Some(alt)) = (cfg.hedge_after, failover.as_mut())
                        {
                            let primary = output.connect_cost + output.exec_cost;
                            if primary > hedge_after {
                                // The duplicate fires hedge_after into the
                                // primary's run; whichever finishes first
                                // (in virtual time) wins the race.
                                if let Ok(hedged) = clock.with_offset(resil + hedge_after, alt) {
                                    let alternate =
                                        hedge_after + hedged.connect_cost + hedged.exec_cost;
                                    if alternate < primary {
                                        events.hedges += 1;
                                        // The abandoned primary occupies the
                                        // branch timeline only until the race
                                        // was decided.
                                        if let Some(rec) = attempts.last_mut() {
                                            rec.duration = alternate;
                                            rec.error =
                                                Some("superseded by faster hedge".to_string());
                                        }
                                        attempts.push(AttemptRecord {
                                            kind: AttemptKind::Hedge,
                                            start: resil + hedge_after,
                                            duration: hedged.connect_cost + hedged.exec_cost,
                                            error: None,
                                        });
                                        resil += hedge_after;
                                        output = hedged;
                                    }
                                }
                            }
                        }
                        return Ok(BranchReport {
                            output,
                            resilience_cost: resil,
                            events,
                            attempts,
                        });
                    }
                    Err(e) if is_retryable(&e) => {
                        if self.record_failure(cfg, target, clock.now() + resil) {
                            events.breaker_opens += 1;
                        }
                        let mut spent = Cost::ZERO;
                        if attempts_made < max_attempts {
                            events.retries += 1;
                            spent = cfg.failure_penalty + backoff(cfg, target, attempts_made);
                        }
                        attempts.push(AttemptRecord {
                            kind: attempt_kind,
                            start: attempt_start,
                            duration: spent,
                            error: Some(e.to_string()),
                        });
                        last_err = Some(e);
                        resil += spent;
                    }
                    // Application-level error (bad SQL, auth, dialect):
                    // retrying cannot help and degradation must not hide
                    // it — propagate immediately.
                    Err(error) => {
                        return Err(BranchFailure {
                            error,
                            resilience_cost: resil,
                        })
                    }
                }
            }
        }

        events.exhausted_target = Some(target.to_string());
        if cfg.failover && !matches!(last_err, Some(CoreError::DeadlineExceeded { .. })) {
            if let Some(alt) = failover.as_mut() {
                // The replica gets its own attempt budget: a transient
                // fault on the failover path must not doom the branch.
                events.failovers += 1;
                let max_attempts = cfg.max_retries.saturating_add(1);
                let mut alt_attempts: u32 = 0;
                while alt_attempts < max_attempts {
                    alt_attempts += 1;
                    let attempt_start = resil;
                    match clock.with_offset(resil, &mut **alt) {
                        Ok(output) => {
                            attempts.push(AttemptRecord {
                                kind: AttemptKind::Failover,
                                start: attempt_start,
                                duration: output.connect_cost + output.exec_cost,
                                error: None,
                            });
                            return Ok(BranchReport {
                                output,
                                resilience_cost: resil,
                                events,
                                attempts,
                            });
                        }
                        Err(e) if is_retryable(&e) && alt_attempts < max_attempts => {
                            events.retries += 1;
                            let spent = cfg.failure_penalty + backoff(cfg, target, alt_attempts);
                            attempts.push(AttemptRecord {
                                kind: AttemptKind::Failover,
                                start: attempt_start,
                                duration: spent,
                                error: Some(e.to_string()),
                            });
                            resil += spent;
                            last_err = Some(e);
                        }
                        Err(e) => {
                            attempts.push(AttemptRecord {
                                kind: AttemptKind::Failover,
                                start: attempt_start,
                                duration: Cost::ZERO,
                                error: Some(e.to_string()),
                            });
                            last_err = Some(e);
                            break;
                        }
                    }
                }
            }
        }

        if cfg.degradation == DegradationPolicy::Partial {
            if let Some(partials) = placeholder() {
                events.dropped = Some(
                    last_err
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "unknown failure".to_string()),
                );
                return Ok(BranchReport {
                    output: BranchYield {
                        partial_bytes: partials.iter().map(Partial::wire_size).collect(),
                        partials,
                        ..BranchYield::default()
                    },
                    resilience_cost: resil,
                    events,
                    attempts,
                });
            }
        }

        let error = match last_err {
            Some(e @ CoreError::CircuitOpen { .. })
            | Some(e @ CoreError::DeadlineExceeded { .. }) => e,
            Some(e) => CoreError::BranchUnavailable {
                branch: label.to_string(),
                attempts: attempts_made,
                detail: e.to_string(),
            },
            None => CoreError::Internal(format!("branch {label} exhausted without an error")),
        };
        Err(BranchFailure {
            error,
            resilience_cost: resil,
        })
    }

    fn admit(&self, cfg: &ResilienceConfig, target: &str, now: Cost) -> bool {
        if cfg.breaker_threshold == 0 {
            return true;
        }
        let mut breakers = self.breakers.lock();
        match breakers.get(target).copied() {
            Some(BreakerState::Open { until }) => {
                if now >= until {
                    breakers.insert(target.to_string(), BreakerState::HalfOpen);
                    true
                } else {
                    false
                }
            }
            _ => true,
        }
    }

    /// Record a failed attempt; returns whether this tripped the breaker
    /// open.
    fn record_failure(&self, cfg: &ResilienceConfig, target: &str, now: Cost) -> bool {
        if cfg.breaker_threshold == 0 {
            return false;
        }
        let mut breakers = self.breakers.lock();
        let state = breakers
            .entry(target.to_string())
            .or_insert(BreakerState::Closed { fails: 0 });
        match state {
            BreakerState::Closed { fails } => {
                *fails += 1;
                if *fails >= cfg.breaker_threshold {
                    *state = BreakerState::Open {
                        until: now + cfg.breaker_cooldown,
                    };
                    true
                } else {
                    false
                }
            }
            // A failed half-open probe re-opens immediately.
            BreakerState::HalfOpen => {
                *state = BreakerState::Open {
                    until: now + cfg.breaker_cooldown,
                };
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    fn record_success(&self, cfg: &ResilienceConfig, target: &str) {
        if cfg.breaker_threshold != 0 {
            self.breakers.lock().remove(target);
        }
    }
}

/// Whether an error is worth retrying: infrastructure faults are,
/// application errors (bad SQL, auth, dialect violations) are not.
pub fn is_retryable(e: &CoreError) -> bool {
    use gridfed_clarens::ClarensError;
    use gridfed_vendors::VendorError;
    match e {
        CoreError::Vendor(VendorError::Unavailable { .. })
        | CoreError::Vendor(VendorError::Transient { .. })
        | CoreError::Rpc(ClarensError::Unavailable(_)) => true,
        // `attempts: 0` means nothing was ever tried — no replica exists,
        // so retrying the resolution cannot help.
        CoreError::BranchUnavailable { attempts, .. } => *attempts > 0,
        // Remote-mediator and pool errors arrive as rendered strings; an
        // embedded unavailability marker means the fault was transport,
        // not the query.
        CoreError::Rpc(ClarensError::ServiceFault(msg)) | CoreError::Pool(msg) => {
            msg.contains("unavailable") || msg.contains("transient fault")
        }
        _ => false,
    }
}

/// Exponential backoff with deterministic jitter: `base * 2^(n-1)` capped
/// at `max_backoff`, then scaled into `[0.75, 1.25)` by a hash of
/// `(target, n)` — spread out, but identical on every run.
fn backoff(cfg: &ResilienceConfig, target: &str, attempt: u32) -> Cost {
    let exp = cfg
        .base_backoff
        .scale(2f64.powi(attempt.saturating_sub(1).min(16) as i32));
    let capped = exp.min(cfg.max_backoff.max(cfg.base_backoff));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ u64::from(attempt);
    for b in target.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
    capped.scale(0.75 + 0.5 * frac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridfed_vendors::VendorError;

    fn unavailable() -> CoreError {
        CoreError::Vendor(VendorError::Unavailable {
            server: "db1".into(),
        })
    }

    fn yield_with(cost_ms: u64) -> BranchYield {
        BranchYield {
            exec_cost: Cost::from_millis(cost_ms),
            ..BranchYield::default()
        }
    }

    #[test]
    fn default_is_passthrough() {
        let r = Resilience::new();
        let cfg = ResilienceConfig::default();
        assert!(!cfg.enabled());
        let clock = VirtualClock::new();
        // success flows through untouched
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(5)),
                None,
                &|| None,
            )
            .unwrap();
        assert_eq!(report.resilience_cost, Cost::ZERO);
        assert_eq!(report.events, BranchEvents::default());
        // a retryable failure is not retried and surfaces typed
        let err = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Err(unavailable()),
                None,
                &|| None,
            )
            .unwrap_err()
            .error;
        assert!(matches!(
            err,
            CoreError::BranchUnavailable { attempts: 1, .. }
        ));
    }

    #[test]
    fn retries_until_success_and_accrues_backoff() {
        let r = Resilience::new();
        let cfg = ResilienceConfig::standard();
        let clock = VirtualClock::new();
        let mut calls = 0;
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || {
                    calls += 1;
                    if calls < 3 {
                        Err(unavailable())
                    } else {
                        Ok(yield_with(5))
                    }
                },
                None,
                &|| None,
            )
            .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(report.events.retries, 2);
        // two failure penalties + two backoffs, all > 0
        assert!(report.resilience_cost >= Cost::from_millis(4));
    }

    #[test]
    fn attempts_observe_accrued_virtual_time() {
        let r = Resilience::new();
        let cfg = ResilienceConfig::standard();
        let clock = VirtualClock::new();
        let mut seen = Vec::new();
        let _ = r.run_branch(
            &cfg,
            &clock,
            "b",
            "url",
            &mut || {
                seen.push(clock.now());
                Err(unavailable())
            },
            None,
            &|| None,
        );
        assert_eq!(seen.len(), 4, "1 + 3 retries");
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "time moves: {seen:?}");
        assert_eq!(clock.now(), Cost::ZERO, "offsets never leak out");
    }

    #[test]
    fn non_retryable_errors_propagate_immediately() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            degradation: DegradationPolicy::Partial,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let mut calls = 0;
        let err = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || {
                    calls += 1;
                    Err(CoreError::TableNotFound("t".into()))
                },
                None,
                &|| Some(vec![]),
            )
            .unwrap_err()
            .error;
        assert_eq!(calls, 1, "no retries for application errors");
        assert!(
            matches!(err, CoreError::TableNotFound(_)),
            "not masked by degradation"
        );
    }

    #[test]
    fn failover_after_exhaustion() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            max_retries: 1,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Err(unavailable()),
                Some(&mut || Ok(yield_with(7))),
                &|| None,
            )
            .unwrap();
        assert_eq!(report.events.failovers, 1);
        assert_eq!(report.events.retries, 1);
        assert_eq!(
            report.events.exhausted_target.as_deref(),
            Some("url"),
            "caller can report the dead primary to the RLS"
        );
        assert_eq!(report.output.exec_cost, Cost::from_millis(7));
    }

    #[test]
    fn partial_degradation_substitutes_placeholder() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            max_retries: 0,
            degradation: DegradationPolicy::Partial,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Err(unavailable()),
                None,
                &|| {
                    Some(vec![Partial {
                        table: "events".into(),
                        columns: vec!["e_id".into()],
                        rows: vec![],
                    }])
                },
            )
            .unwrap();
        let reason = report.events.dropped.expect("dropped");
        assert!(reason.contains("unavailable"), "{reason}");
        assert_eq!(report.output.partials.len(), 1);
        assert!(report.output.partials[0].rows.is_empty());
    }

    #[test]
    fn breaker_opens_rejects_then_half_opens() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: Cost::from_millis(100),
            failover: false,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let mut fail = || Err(unavailable());

        // two failures trip the breaker
        let _ = r.run_branch(&cfg, &clock, "b", "url", &mut fail, None, &|| None);
        assert_eq!(r.breaker_state("url"), "closed");
        let _ = r.run_branch(&cfg, &clock, "b", "url", &mut fail, None, &|| None);
        assert_eq!(r.breaker_state("url"), "open");

        // while open, dispatch is refused without calling attempt
        let mut called = false;
        let err = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || {
                    called = true;
                    Ok(yield_with(1))
                },
                None,
                &|| None,
            )
            .unwrap_err()
            .error;
        assert!(!called, "open breaker short-circuits");
        assert!(matches!(err, CoreError::CircuitOpen { .. }));

        // after the cooldown a half-open probe is admitted; success closes
        clock.advance(Cost::from_millis(100));
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(1)),
                None,
                &|| None,
            )
            .unwrap();
        assert_eq!(report.events.breaker_rejections, 0);
        assert_eq!(r.breaker_state("url"), "closed");
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Cost::from_millis(50),
            failover: false,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let _ = r.run_branch(
            &cfg,
            &clock,
            "b",
            "url",
            &mut || Err(unavailable()),
            None,
            &|| None,
        );
        assert_eq!(r.breaker_state("url"), "open");
        clock.advance(Cost::from_millis(50));
        let _ = r.run_branch(
            &cfg,
            &clock,
            "b",
            "url",
            &mut || Err(unavailable()),
            None,
            &|| None,
        );
        assert_eq!(r.breaker_state("url"), "open", "probe failed, re-opened");
        r.reset_breakers();
        assert_eq!(r.breaker_state("url"), "closed");
    }

    #[test]
    fn deadline_stops_retrying() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            max_retries: 100,
            base_backoff: Cost::from_millis(10),
            max_backoff: Cost::from_millis(10),
            branch_deadline: Some(Cost::from_millis(25)),
            failover: true,
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let mut calls = 0u32;
        let mut failover_called = false;
        let err = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || {
                    calls += 1;
                    Err(unavailable())
                },
                Some(&mut || {
                    failover_called = true;
                    Ok(yield_with(1))
                }),
                &|| None,
            )
            .unwrap_err()
            .error;
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }));
        assert!(calls < 100, "deadline cut retries short (made {calls})");
        assert!(!failover_called, "no failover once out of time");
    }

    #[test]
    fn slow_success_past_deadline_is_rejected() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            branch_deadline: Some(Cost::from_millis(10)),
            ..ResilienceConfig::default()
        };
        let clock = VirtualClock::new();
        let err = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(50)),
                None,
                &|| None,
            )
            .unwrap_err()
            .error;
        assert!(matches!(err, CoreError::DeadlineExceeded { .. }));
    }

    #[test]
    fn hedge_prefers_faster_duplicate() {
        let r = Resilience::new();
        let cfg = ResilienceConfig {
            hedge_after: Some(Cost::from_millis(10)),
            ..ResilienceConfig::standard()
        };
        let clock = VirtualClock::new();
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(100)),
                Some(&mut || Ok(yield_with(5))),
                &|| None,
            )
            .unwrap();
        assert_eq!(report.events.hedges, 1);
        assert_eq!(report.output.exec_cost, Cost::from_millis(5));
        assert_eq!(report.resilience_cost, Cost::from_millis(10));

        // a slower duplicate loses the race: primary kept, no hedge event
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(100)),
                Some(&mut || Ok(yield_with(200))),
                &|| None,
            )
            .unwrap();
        assert_eq!(report.events.hedges, 0);
        assert_eq!(report.output.exec_cost, Cost::from_millis(100));
        // a fast primary is never hedged
        let mut hedge_called = false;
        let report = r
            .run_branch(
                &cfg,
                &clock,
                "b",
                "url",
                &mut || Ok(yield_with(1)),
                Some(&mut || {
                    hedge_called = true;
                    Ok(yield_with(1))
                }),
                &|| None,
            )
            .unwrap();
        assert!(!hedge_called);
        assert_eq!(report.events.hedges, 0);
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let cfg = ResilienceConfig {
            base_backoff: Cost::from_millis(8),
            max_backoff: Cost::from_millis(20),
            ..ResilienceConfig::standard()
        };
        let b1 = backoff(&cfg, "url", 1);
        let b2 = backoff(&cfg, "url", 2);
        let b3 = backoff(&cfg, "url", 3);
        assert_eq!(b1, backoff(&cfg, "url", 1), "deterministic");
        assert!(b1 >= Cost::from_millis(6) && b1 < Cost::from_millis(10));
        assert!(b2 > b1, "doubling dominates jitter here");
        assert!(b3 <= Cost::from_millis(25), "capped at max * 1.25");
        assert_ne!(backoff(&cfg, "other-url", 1), b1, "per-target jitter");
    }

    #[test]
    fn retryability_classification() {
        use gridfed_clarens::ClarensError;
        assert!(is_retryable(&unavailable()));
        assert!(is_retryable(&CoreError::Vendor(VendorError::Transient {
            server: "s".into()
        })));
        assert!(is_retryable(&CoreError::Rpc(ClarensError::Unavailable(
            "u".into()
        ))));
        assert!(is_retryable(&CoreError::Rpc(ClarensError::ServiceFault(
            "vendor error: server `x` is unavailable".into()
        ))));
        assert!(is_retryable(&CoreError::Pool(
            "transient fault talking to server `x`".into()
        )));
        assert!(!is_retryable(&CoreError::TableNotFound("t".into())));
        assert!(!is_retryable(&CoreError::Rpc(ClarensError::NoSession)));
        assert!(!is_retryable(&CoreError::Pool("no handle".into())));
    }
}
