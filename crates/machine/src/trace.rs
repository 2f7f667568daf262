//! Execution traces — re-exported from `tcf-obs`.
//!
//! The trace model (issue records stored as runs, Gantt rendering, CSV
//! export, ring-buffer mode) lives in the [`tcf_obs`] observability crate so that
//! every layer of the stack shares one vocabulary; this module re-exports
//! it under the historical `tcf_machine::trace` paths so existing callers
//! keep compiling.

pub use tcf_obs::trace::{FlowTag, Trace, TraceEvent, UnitKind};

#[cfg(test)]
mod tests {
    use super::*;

    // The substantive trace tests live in `tcf-obs`; this pins the
    // re-exported paths and glyphs the machine crate relies on.
    #[test]
    fn reexported_trace_is_usable() {
        let mut t = Trace::recording();
        t.push(TraceEvent::unit(
            0,
            0,
            Some(1 as FlowTag),
            None,
            UnitKind::Compute,
        ));
        assert_eq!(t.events().len(), 1);
        assert_eq!(UnitKind::Compute.glyph(), '#');
        assert_eq!(UnitKind::FlowOverhead.as_str(), "overhead");
    }
}
