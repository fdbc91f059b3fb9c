//! Telemetry probes for the execution engine.
//!
//! The engine's hot path is a per-call tier dispatch, so instrumentation
//! happens exactly once per [`crate::engine::Engine::call_tier`] entry:
//! one dispatch-latency sample and a mirror of the call's
//! [`crate::engine::EngineStats`] delta into the global registry. Nothing
//! probes per instruction — a trial executing millions of ops pays the
//! same fixed per-call cost — and the whole block sits behind
//! [`distill_telemetry::enabled`], so `DISTILL_TELEMETRY=0` reduces it to
//! one relaxed load.
//!
//! Metric names (see the README's Observability catalog):
//!
//! * `engine.tier.<tier>.calls` / `engine.tier.<tier>.dispatch_ns` — calls
//!   entering each tier and their wall-clock dispatch latency.
//! * `engine.instructions`, `engine.fused_ops`, `engine.frame_pool_hits`,
//!   `engine.frame_slots` — mirrors of the same-named `EngineStats`
//!   counters, accumulated process-wide across every engine instance.

use crate::backend::Tier;
use crate::engine::EngineStats;
use distill_telemetry::{self as telemetry, Counter, Histogram};
use std::sync::OnceLock;

/// Per-tier instruments, indexed by [`tier_index`].
pub(crate) struct TierProbes {
    pub calls: &'static Counter,
    pub dispatch_ns: &'static Histogram,
}

/// All engine-side instruments, registered once and cached for the life of
/// the process.
pub(crate) struct EngineProbes {
    pub tiers: [TierProbes; 4],
    pub instructions: &'static Counter,
    pub fused_ops: &'static Counter,
    pub frame_pool_hits: &'static Counter,
    pub frame_slots: &'static Counter,
}

pub(crate) fn tier_index(tier: Tier) -> usize {
    match tier {
        Tier::Reference => 0,
        Tier::Decoded => 1,
        Tier::Fused => 2,
        Tier::Threaded => 3,
    }
}

pub(crate) fn engine_probes() -> &'static EngineProbes {
    static PROBES: OnceLock<EngineProbes> = OnceLock::new();
    PROBES.get_or_init(|| {
        let reg = telemetry::registry();
        let tier = |t: Tier| TierProbes {
            calls: reg.counter(&format!("engine.tier.{}.calls", t.label())),
            dispatch_ns: reg.histogram(&format!("engine.tier.{}.dispatch_ns", t.label())),
        };
        EngineProbes {
            tiers: Tier::ALL.map(tier),
            instructions: reg.counter("engine.instructions"),
            fused_ops: reg.counter("engine.fused_ops"),
            frame_pool_hits: reg.counter("engine.frame_pool_hits"),
            frame_slots: reg.counter("engine.frame_slots"),
        }
    })
}

/// Record one instrumented `call_tier` dispatch: its latency and the
/// engine-counter deltas it produced.
pub(crate) fn record_dispatch(
    tier: Tier,
    elapsed: std::time::Duration,
    before: &EngineStats,
    after: &EngineStats,
) {
    let p = engine_probes();
    let t = &p.tiers[tier_index(tier)];
    t.calls.inc();
    t.dispatch_ns.record_duration(elapsed);
    p.instructions.add(after.instructions - before.instructions);
    p.fused_ops.add(after.fused_ops - before.fused_ops);
    p.frame_pool_hits
        .add(after.frame_pool_hits - before.frame_pool_hits);
    p.frame_slots.add(after.frame_slots - before.frame_slots);
}
