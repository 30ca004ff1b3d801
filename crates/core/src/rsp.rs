//! Ripple-Stream-based Prefetch (RSP) — Algorithm 2 of the paper.
//!
//! Ripple streams (Figure 3) are stride-1 streams distorted by
//! out-of-order and across-stream accesses. The insight: if a hot page
//! belongs to a ripple stream, then even when the history hops away,
//! some later access returns, making the *cumulative* stride from the
//! new page small again. RSP walks the stride history backwards,
//! accumulating strides; each time the absolute accumulated stride
//! falls within `max_stride` (default 2, tolerating two out-of-order
//! accesses) it counts a *ripple page* and resets the accumulator. When
//! at least `L/2` ripple pages are found, the page belongs to a ripple
//! stream and the predicted stride is 1.

use crate::stt::StreamWindow;

/// The out-of-order tolerance (the paper's `max_stride`).
pub const MAX_STRIDE: i64 = 2;

/// Runs Algorithm 2 on a training window with the given tolerance.
///
/// Returns `true` when the window's newest page belongs to a ripple
/// stream (predicted stride 1).
pub fn is_ripple_with(window: &StreamWindow, max_stride: i64) -> bool {
    let strides = window.stride_history;
    let l = window.len();
    let mut ripple_num = 0usize;

    // The newest stride is checked directly (line 2 of the algorithm)...
    if window.stride_a().abs() <= max_stride {
        ripple_num += 1;
    }
    // ...then strides accumulate backwards from the newest page; every
    // return to within max_stride marks a ripple page (lines 5-9).
    let mut accumulate: i64 = 0;
    for &s in strides.iter().rev().skip(1) {
        accumulate += s;
        if accumulate.abs() <= max_stride {
            ripple_num += 1;
            accumulate = 0;
        }
    }

    ripple_num >= l / 2
}

/// Runs Algorithm 2 with the paper's default `max_stride = 2`.
pub fn is_ripple(window: &StreamWindow) -> bool {
    is_ripple_with(window, MAX_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::test_support::OwnedWindow;

    #[test]
    fn clean_stride_1_is_a_ripple() {
        let vpns: Vec<u64> = (100..116).collect();
        assert!(is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }

    #[test]
    fn out_of_order_scan_is_a_ripple() {
        // Stride-1 scan with adjacent swaps (the paper's Figure 3 shape).
        let vpns = [
            100, 102, 101, 103, 105, 104, 106, 107, 109, 108, 110, 111, 113, 112, 114, 115,
        ];
        assert!(is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }

    #[test]
    fn hops_that_return_are_tolerated() {
        // Occasional far hops; the cumulative stride returns to ~0.
        let vpns = [
            100, 101, 5000, 102, 103, 104, 9000, 105, 106, 107, 108, 7000, 109, 110, 111, 112,
        ];
        assert!(is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }

    #[test]
    fn random_accesses_are_not_a_ripple() {
        let vpns = [
            100, 900, 40, 7000, 3, 650, 12000, 88, 4100, 77, 950, 31, 8000, 210, 5, 666,
        ];
        assert!(!is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }

    #[test]
    fn large_stride_stream_is_not_a_ripple() {
        // A clean stride-10 simple stream: SSP's job, not RSP's.
        let vpns: Vec<u64> = (0..16).map(|k| 100 + 10 * k).collect();
        assert!(!is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }

    #[test]
    fn tolerance_is_configurable() {
        // Stride-3 stream: not a ripple at max_stride=2, is at 3.
        let vpns: Vec<u64> = (0..16).map(|k| 100 + 3 * k).collect();
        let w = OwnedWindow::from_vpns(&vpns);
        let w = w.window();
        assert!(!is_ripple_with(&w, 2));
        assert!(is_ripple_with(&w, 3));
    }

    #[test]
    fn ladder_is_not_a_ripple() {
        // Figure 2's ladder: treads are close but rises accumulate.
        let mut vpns = Vec::new();
        for r in 0..4u64 {
            for k in 0..4u64 {
                vpns.push(18 * r + 2 * k);
            }
        }
        assert!(!is_ripple(&OwnedWindow::from_vpns(&vpns).window()));
    }
}
