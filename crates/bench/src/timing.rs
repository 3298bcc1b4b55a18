//! Minimal timing helper for the benchmark targets.
//!
//! The offline crate set has no `criterion`, so the bench targets carry
//! their own harness: warmup + best-of-N wall timing. Machine-readable
//! reports such as `BENCH_engine.json` use `least_serve::JsonValue`
//! through [`crate::emit_report`].

use std::time::{Duration, Instant};

/// Time `f`, returning the best (minimum) wall-clock duration over `reps`
/// runs after one untimed warmup call. Minimum-of-N is the standard
/// noise-rejection estimator for single-process micro-benchmarks.
pub fn time_best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    assert!(reps > 0, "reps must be positive");
    std::hint::black_box(f());
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_of_returns_positive_duration() {
        let d = time_best_of(3, || (0..1000).sum::<u64>());
        assert!(d > Duration::ZERO);
    }

    // The report files are rendered by `least_serve::JsonValue`; these pin
    // the rendering properties the bench reports rely on.
    use least_serve::JsonValue;

    #[test]
    fn json_renders_nested() {
        let j = JsonValue::obj(vec![
            ("name", JsonValue::Str("engine".into())),
            ("ok", JsonValue::Bool(true)),
            (
                "times",
                JsonValue::Arr(vec![JsonValue::Num(1.5), JsonValue::Num(2.0)]),
            ),
        ]);
        assert_eq!(j.render(), r#"{"name":"engine","ok":true,"times":[1.5,2]}"#);
    }

    #[test]
    fn json_escapes_strings() {
        let j = JsonValue::Str("a\"b\\c\nd".into());
        assert_eq!(j.render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
    }
}
