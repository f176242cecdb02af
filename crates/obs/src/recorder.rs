//! The [`Recorder`] trait — the zero-cost instrumentation surface.

/// The instrumentation surface the instrumented entry points of every
/// subsystem are generic over.
///
/// All methods are no-op defaults, and the `()` implementation overrides
/// nothing — plain entry points thread `&mut ()` through the generic
/// parameter and the calls inline to zero instructions.
///
/// The hard contract: a recorder only *observes*. Implementations must
/// not feed anything back into the execution; every engine entry point
/// guarantees that an instrumented run is bit-identical to a plain one.
pub trait Recorder {
    /// Opens a named nested timing scope.
    #[inline]
    fn span_begin(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Closes the innermost scope opened under `name`.
    #[inline]
    fn span_end(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Adds `delta` to the counter `name`.
    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Sets the gauge `name` to `value`.
    #[inline]
    fn gauge(&mut self, name: &'static str, value: i64) {
        let _ = (name, value);
    }

    /// Records `value` into the histogram `name`.
    #[inline]
    fn observe(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// The zero-cost recorder of every plain entry point.
impl Recorder for () {}

/// Forwarding makes `&mut R` usable wherever a recorder value is
/// expected, so callers can lend one recorder to several scopes.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    #[inline]
    fn span_begin(&mut self, name: &'static str) {
        (**self).span_begin(name);
    }
    #[inline]
    fn span_end(&mut self, name: &'static str) {
        (**self).span_end(name);
    }
    #[inline]
    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }
    #[inline]
    fn gauge(&mut self, name: &'static str, value: i64) {
        (**self).gauge(name, value);
    }
    #[inline]
    fn observe(&mut self, name: &'static str, value: u64) {
        (**self).observe(name, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_recorder_compiles_to_unit() {
        let mut r = ();
        r.span_begin("s");
        r.span_end("s");
        r.counter("c", 1);
        r.gauge("g", -3);
        r.observe("h", 9);
    }

    #[test]
    fn mut_ref_forwarding_records_through() {
        /// Counts every counter increment it receives.
        #[derive(Default)]
        struct Tally(u64);
        impl Recorder for Tally {
            fn counter(&mut self, _name: &'static str, delta: u64) {
                self.0 += delta;
            }
        }
        // Generic over `R` by value, so `&mut Tally` goes through the
        // forwarding impl rather than auto-deref.
        fn record<R: Recorder>(mut r: R) {
            r.counter("a", 2);
            r.counter("b", 3);
        }
        let mut t = Tally::default();
        record(&mut t);
        assert_eq!(t.0, 5);
    }
}
