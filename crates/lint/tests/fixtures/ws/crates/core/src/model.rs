//! S1/T1 fixture: struct definitions and telemetry usage in a host crate.

/// Own-impl rule: `image` covers `kept` but forgets `forgotten`.
pub struct Gadget {
    kept: u64,
    forgotten: u64,
    scratch: Vec<u64>, // bard-lint: allow(S1) -- fixture: scratch buffer (negative)
}

impl Gadget {
    pub fn image(&self) -> u64 {
        self.kept
    }
}

/// Marker rule: serialized by `save_marked`, not by an own-impl fn.
// bard-lint: snapshot-state(save_marked)
pub struct MarkedCtx {
    pub saved: u64,
    pub not_saved: u64,
}

pub fn save_marked(ctx: &MarkedCtx) -> u64 {
    ctx.saved
}

pub fn telemetry_usage() {
    crate::telemetry::WIDGET_EVENTS.add(1); // negative: cell write
    crate::telemetry::WIDGET_LATENCY.observe(3); // negative: cell write
    telemetry::trace_instant("fixture"); // negative: sanctioned emit API
    let snooped = crate::telemetry::WIDGET_EVENTS.value(); // finding: cell read
    let report = telemetry::metrics(); // finding: unsanctioned member
    let _ = (snooped, report);
}
