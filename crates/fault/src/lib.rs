//! # dp-fault — deterministic, seeded fault injection for the serving stack
//!
//! The failure paths the serving layers grew (shed verdicts, panic
//! isolation, `EngineClosed`, and now deadlines, stalled-worker detection
//! and degraded mode) used to be exercisable only by racing real threads.
//! This crate makes them **deterministic**: code under test declares named
//! *failure points* (via the `fault-inject` features of `dp_serve` and
//! `dp_gateway`), and a test installs a [`FaultPlan`] saying which points
//! misbehave, when, and how.
//!
//! * **Failure points** ([`points`]) — stable string names compiled into
//!   the ring's pop path and the chunk-job seams:
//!   [`points::PANIC_IN_CHUNK`], [`points::STALL_WORKER`],
//!   [`points::DELAY_DISPATCH`], [`points::DROP_COMPLETION`]. Without the
//!   `fault-inject` feature the hooks compile to nothing; with it but no
//!   plan installed they are a single relaxed atomic load.
//! * **[`FaultPlan`] DSL** — rules built from a point, an optional
//!   per-model scope, a [`Trigger`] (k-th hit, every n-th, first n,
//!   seeded probability, always) and a [`FaultAction`] (panic, sleep,
//!   drop the completion).
//! * **Determinism** — probabilistic triggers draw from a xorshift RNG
//!   seeded by the plan, hit counters are per-rule, and every fired fault
//!   is appended to a process-wide log ([`take_log`]) so a test can
//!   assert the exact failure sequence reproduces across runs.
//!
//! The plan is process-global (`install`/[`clear`]); tests that install
//! plans must serialize among themselves (the chaos suite in this crate's
//! `tests/` directory holds a lock for exactly that).
//!
//! ```
//! use dp_fault::{points, FaultAction, FaultPlan, Trigger};
//!
//! let plan = FaultPlan::seeded(42)
//!     // Third chunk evaluated for the "iris" model panics.
//!     .inject_for_model(
//!         points::PANIC_IN_CHUNK,
//!         "iris",
//!         Trigger::OnHit(3),
//!         FaultAction::Panic,
//!     )
//!     // Every dispatch is delayed 5 ms (lets deadline races reproduce).
//!     .inject(
//!         points::DELAY_DISPATCH,
//!         Trigger::Always,
//!         FaultAction::Sleep(5),
//!     );
//! dp_fault::install(plan);
//! // … drive the gateway/engine, assert on typed errors …
//! dp_fault::clear();
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Duration;

/// Stable names of the failure points compiled into the serving stack.
///
/// | point | seam | meaning |
/// |---|---|---|
/// | `panic_in_chunk` | chunk evaluation (inside the caller's per-chunk closure, within its accounting guard) | the chunk's evaluation panics (exercises panic isolation and the panic budget) |
/// | `stall_worker` | pool worker loop (`dp_serve`) | the worker sleeps mid-job (exercises heartbeats and the watchdog) |
/// | `delay_dispatch` | ring pop (`dp_gateway`) | the start of a popped ring entry is delayed, before its deadline check (exercises deadline expiry) |
/// | `drop_completion` | chunk completion (`dp_serve` job closure) | the finished chunk's completion is silently dropped (exercises `wait_timeout` + cancellation) |
pub mod points {
    /// Chunk evaluation panics inside a pool worker.
    pub const PANIC_IN_CHUNK: &str = "panic_in_chunk";
    /// A pool worker sleeps mid-job, looking wedged to the watchdog.
    pub const STALL_WORKER: &str = "stall_worker";
    /// A worker sleeps after popping a ring entry, before starting it.
    pub const DELAY_DISPATCH: &str = "delay_dispatch";
    /// A finished chunk's completion is dropped instead of delivered.
    pub const DROP_COMPLETION: &str = "drop_completion";
}

/// What a fired fault does at its failure point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a message naming the point (`injected fault: <point>`).
    Panic,
    /// Sleep this many **milliseconds** before continuing (a stalled
    /// worker or delayed dispatch, depending on the point).
    Sleep(u64),
    /// Instruct the hook's caller to drop the completion it was about to
    /// deliver (only meaningful at [`points::DROP_COMPLETION`]-shaped
    /// seams; elsewhere it is a no-op).
    DropCompletion,
}

/// When a rule fires, counted over the **hits that match the rule**
/// (point and scope), 1-based.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every matching hit.
    Always,
    /// Exactly the k-th matching hit (1-based), once.
    OnHit(u64),
    /// Every n-th matching hit (n, 2n, 3n, …).
    EveryNth(u64),
    /// The first n matching hits.
    FirstN(u64),
    /// Each matching hit independently with probability `p`, drawn from
    /// the plan's seeded RNG — deterministic for a given seed and hit
    /// order.
    WithProbability(f64),
}

/// One injection rule: point + optional model scope + trigger + action.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// The failure-point name this rule arms (see [`points`]).
    pub point: String,
    /// When set, the rule only matches hits carrying this scope (the
    /// serving layers pass the logical model name).
    pub scope: Option<String>,
    /// When the rule fires among its matching hits.
    pub trigger: Trigger,
    /// What happens when it fires.
    pub action: FaultAction,
}

/// A deterministic injection plan: a seed plus an ordered rule list.
///
/// Rules are evaluated in insertion order per hit; the **first** rule that
/// matches and whose trigger fires wins (its action is executed and
/// logged), so narrow scoped rules should be inserted before broad ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan whose probabilistic triggers draw from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Adds an unscoped rule (matches every hit of `point`).
    pub fn inject(mut self, point: &str, trigger: Trigger, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            scope: None,
            trigger,
            action,
        });
        self
    }

    /// Adds a rule that only matches hits of `point` carrying `model` as
    /// their scope.
    pub fn inject_for_model(
        mut self,
        point: &str,
        model: &str,
        trigger: Trigger,
        action: FaultAction,
    ) -> Self {
        self.rules.push(FaultRule {
            point: point.to_string(),
            scope: Some(model.to_string()),
            trigger,
            action,
        });
        self
    }

    /// The configured rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }
}

/// One fired fault, as recorded in the process-wide log.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredFault {
    /// Global 1-based sequence number of this firing.
    pub seq: u64,
    /// The failure point that fired.
    pub point: String,
    /// The scope the hit carried (model name), if any.
    pub scope: Option<String>,
    /// Which matching hit of the winning rule this was (1-based).
    pub hit: u64,
    /// The action that was executed.
    pub action: FaultAction,
}

/// Minimal xorshift64* — deterministic, dependency-free.
#[derive(Debug)]
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        // 0 is a fixed point of xorshift; displace it.
        XorShift64(seed | 1)
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct ArmedRule {
    rule: FaultRule,
    /// Matching hits seen so far (point + scope matched).
    hits: AtomicU64,
}

struct ActivePlan {
    rules: Vec<ArmedRule>,
    rng: Mutex<XorShift64>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<ActivePlan>> = RwLock::new(None);
static LOG: Mutex<Vec<FiredFault>> = Mutex::new(Vec::new());
static SEQ: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` process-wide (replacing any previous plan) and clears
/// the fired-fault log. Hit counters start at zero.
pub fn install(plan: FaultPlan) {
    let active = ActivePlan {
        rules: plan
            .rules
            .into_iter()
            .map(|rule| ArmedRule {
                rule,
                hits: AtomicU64::new(0),
            })
            .collect(),
        rng: Mutex::new(XorShift64::new(plan.seed)),
    };
    *PLAN.write().expect("fault plan lock") = Some(active); // panic-ok: see `trip`
    LOG.lock().expect("fault log lock").clear(); // panic-ok: see `trip`
                                                 // relaxed-ok: (audited, was SeqCst) the plan is published through the
                                                 // PLAN RwLock; SEQ and ACTIVE carry no data of their own, so no
                                                 // ordering between them is load-bearing (same for `clear`).
    SEQ.store(0, Ordering::Relaxed);
    // relaxed-ok: fast-path gate only — a stale read costs or skips one
    // RwLock acquisition, and `trip` re-checks under the lock anyway.
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Removes the installed plan; every failure point goes back to a single
/// (false) atomic load. The fired-fault log is left intact for
/// post-mortem assertions — [`take_log`] drains it.
pub fn clear() {
    ACTIVE.store(false, Ordering::Relaxed); // relaxed-ok: see `install`
    *PLAN.write().expect("fault plan lock") = None; // panic-ok: see `trip`
}

/// Whether a plan is currently installed.
pub fn is_active() -> bool {
    // relaxed-ok: advisory fast-path gate; see `install`.
    ACTIVE.load(Ordering::Relaxed)
}

/// Drains and returns the fired-fault log (in firing order).
pub fn take_log() -> Vec<FiredFault> {
    // panic-ok: see `trip`
    std::mem::take(&mut *LOG.lock().expect("fault log lock"))
}

/// A copy of the fired-fault log without draining it.
pub fn log() -> Vec<FiredFault> {
    LOG.lock().expect("fault log lock").clone() // panic-ok: see `trip`
}

/// Evaluates a hit of `point` (with an optional model `scope`) against
/// the installed plan **and executes** the winning action:
/// [`FaultAction::Panic`] panics, [`FaultAction::Sleep`] sleeps, and
/// [`FaultAction::DropCompletion`] returns `true` so the caller drops the
/// completion it was about to deliver. Returns `false` when nothing fired.
///
/// This is the function the `fault-inject` hook shims in `dp_serve` /
/// `dp_gateway` call; it is also usable directly from tests.
///
/// # Panics
///
/// By design, when the winning action is [`FaultAction::Panic`].
pub fn apply(point: &str, scope: Option<&str>) -> bool {
    // relaxed-ok: advisory fast-path gate; see `install`.
    if !ACTIVE.load(Ordering::Relaxed) {
        return false;
    }
    let Some(fired) = trip(point, scope) else {
        return false;
    };
    match fired {
        // panic-ok: the injected action *is* a panic — that is the whole
        // point of the failure plan; callers opted in by installing it.
        FaultAction::Panic => panic!("injected fault: {point}"),
        FaultAction::Sleep(ms) => {
            std::thread::sleep(Duration::from_millis(ms));
            false
        }
        FaultAction::DropCompletion => true,
    }
}

/// Like [`apply`] but only does the bookkeeping: returns the action that
/// fired (recording it in the log) without executing it.
pub fn trip(point: &str, scope: Option<&str>) -> Option<FaultAction> {
    // relaxed-ok: advisory fast-path gate; see `install`.
    if !ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    // panic-ok: the lock guards plain Vec/Option state whose critical
    // sections cannot panic; poisoning would mean the harness itself is
    // already broken mid-unwind, and hiding that would mask the bug.
    let plan = PLAN.read().expect("fault plan lock");
    let plan = plan.as_ref()?;
    for armed in &plan.rules {
        if armed.rule.point != point {
            continue;
        }
        if let Some(want) = &armed.rule.scope {
            if scope != Some(want.as_str()) {
                continue;
            }
        }
        // relaxed-ok: (audited, was SeqCst) the RMW alone makes hit
        // numbers unique and monotone per rule; nothing orders against it.
        let hit = armed.hits.fetch_add(1, Ordering::Relaxed) + 1;
        let fires = match armed.rule.trigger {
            Trigger::Always => true,
            Trigger::OnHit(k) => hit == k,
            Trigger::EveryNth(n) => n > 0 && hit % n == 0,
            Trigger::FirstN(n) => hit <= n,
            // panic-ok: see the PLAN lock note above
            Trigger::WithProbability(p) => plan.rng.lock().expect("fault rng lock").next_f64() < p,
        };
        if fires {
            // relaxed-ok: (audited, was SeqCst) the RMW alone makes seq
            // unique; log order comes from the LOG lock, which SeqCst
            // never guaranteed either (seq is drawn before the lock).
            let seq = SEQ.fetch_add(1, Ordering::Relaxed) + 1;
            // panic-ok: see the PLAN lock note above
            LOG.lock().expect("fault log lock").push(FiredFault {
                seq,
                point: point.to_string(),
                scope: scope.map(str::to_string),
                hit,
                action: armed.rule.action,
            });
            return Some(armed.rule.action);
        }
        // A matching rule that did not fire still consumed the hit; later
        // rules get their own count. Continue so broader rules can fire.
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The plan is process-global; unit tests serialize on this.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_points_do_nothing() {
        let _guard = serial();
        clear();
        assert!(!is_active());
        assert!(!apply(points::PANIC_IN_CHUNK, None));
        assert_eq!(trip(points::STALL_WORKER, Some("iris")), None);
    }

    #[test]
    fn on_hit_fires_exactly_once_at_k() {
        let _guard = serial();
        install(FaultPlan::seeded(1).inject(
            points::DROP_COMPLETION,
            Trigger::OnHit(3),
            FaultAction::DropCompletion,
        ));
        let fired: Vec<bool> = (0..5)
            .map(|_| apply(points::DROP_COMPLETION, None))
            .collect();
        assert_eq!(fired, vec![false, false, true, false, false]);
        let log = take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].hit, 3);
        assert_eq!(log[0].seq, 1);
        clear();
    }

    #[test]
    fn scoped_rules_only_match_their_model() {
        let _guard = serial();
        install(FaultPlan::seeded(1).inject_for_model(
            points::DROP_COMPLETION,
            "iris",
            Trigger::Always,
            FaultAction::DropCompletion,
        ));
        assert!(!apply(points::DROP_COMPLETION, Some("wbc")));
        assert!(!apply(points::DROP_COMPLETION, None));
        assert!(apply(points::DROP_COMPLETION, Some("iris")));
        // Only matching hits advanced the rule's counter.
        assert_eq!(take_log().len(), 1);
        clear();
    }

    #[test]
    fn first_n_and_every_nth_count_matching_hits() {
        let _guard = serial();
        install(
            FaultPlan::seeded(1)
                .inject(
                    points::DROP_COMPLETION,
                    Trigger::FirstN(2),
                    FaultAction::DropCompletion,
                )
                .inject(
                    points::DELAY_DISPATCH,
                    Trigger::EveryNth(2),
                    FaultAction::DropCompletion,
                ),
        );
        let drops: Vec<bool> = (0..4)
            .map(|_| apply(points::DROP_COMPLETION, None))
            .collect();
        assert_eq!(drops, vec![true, true, false, false]);
        let delays: Vec<bool> = (0..4)
            .map(|_| apply(points::DELAY_DISPATCH, None))
            .collect();
        assert_eq!(delays, vec![false, true, false, true]);
        clear();
    }

    #[test]
    fn seeded_probability_reproduces_exactly() {
        let _guard = serial();
        let run = |seed: u64| -> Vec<u64> {
            install(FaultPlan::seeded(seed).inject(
                points::DROP_COMPLETION,
                Trigger::WithProbability(0.4),
                FaultAction::DropCompletion,
            ));
            for _ in 0..64 {
                apply(points::DROP_COMPLETION, None);
            }
            let log = take_log();
            clear();
            log.into_iter().map(|f| f.hit).collect()
        };
        let a = run(123);
        let b = run(123);
        let c = run(456);
        assert_eq!(a, b, "same seed must reproduce the same firing sequence");
        assert!(!a.is_empty() && a.len() < 64, "p=0.4 over 64 hits: {a:?}");
        assert_ne!(a, c, "different seeds should diverge");
    }

    #[test]
    fn first_matching_rule_wins_but_misses_fall_through() {
        let _guard = serial();
        install(
            FaultPlan::seeded(1)
                .inject_for_model(
                    points::DROP_COMPLETION,
                    "iris",
                    Trigger::OnHit(2),
                    FaultAction::DropCompletion,
                )
                .inject(
                    points::DROP_COMPLETION,
                    Trigger::Always,
                    FaultAction::DropCompletion,
                ),
        );
        // Hit 1: scoped rule matches but doesn't fire (k=2); broad rule fires.
        assert!(apply(points::DROP_COMPLETION, Some("iris")));
        // Hit 2: scoped rule fires first.
        assert!(apply(points::DROP_COMPLETION, Some("iris")));
        let log = take_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].hit, 2);
        clear();
    }

    #[test]
    fn sleep_action_delays_and_returns_false() {
        let _guard = serial();
        install(FaultPlan::seeded(1).inject(
            points::STALL_WORKER,
            Trigger::OnHit(1),
            FaultAction::Sleep(20),
        ));
        let t0 = std::time::Instant::now();
        assert!(!apply(points::STALL_WORKER, None));
        assert!(t0.elapsed() >= Duration::from_millis(20));
        clear();
    }

    #[test]
    #[should_panic(expected = "injected fault: panic_in_chunk")]
    fn panic_action_panics_with_point_name() {
        let _guard = serial();
        install(FaultPlan::seeded(1).inject(
            points::PANIC_IN_CHUNK,
            Trigger::Always,
            FaultAction::Panic,
        ));
        // Leave the plan cleanup to the next install (the panic unwinds).
        apply(points::PANIC_IN_CHUNK, None);
    }
}
