//! Simple-Stream-based Prefetch (SSP) — §III-D(2) of the paper.
//!
//! A stride is *dominant* in a `stride_history` when one value occurs at
//! least `L/2` times. Simple streams (fixed-stride scans) cover the
//! majority of stream patterns in the studied applications (§VI-D), so
//! SSP runs first and the other tiers only see windows it rejects.

use crate::stt::StreamWindow;

/// Returns the dominant stride of the window, if one exists.
///
/// Zero strides never dominate: a "stream" that stays on one page needs
/// no prefetching (and the STT dedupes exact repeats anyway).
///
/// # Example
///
/// ```
/// use hopp_core::ssp;
/// use hopp_core::stt::{StreamTrainingTable, SttConfig};
/// use hopp_obs::NopRecorder;
/// use hopp_types::{HotPage, Nanos, PageFlags, Pid, Vpn};
///
/// let mut stt = StreamTrainingTable::new(SttConfig { history: 4, ..Default::default() })?;
/// let mut stride = None;
/// for v in [10u64, 13, 16, 19] {
///     let hot = HotPage { pid: Pid::new(1), vpn: Vpn::new(v),
///                         flags: PageFlags::default(), at: Nanos::ZERO };
///     if let Some(window) = stt.observe(&hot, &mut NopRecorder) {
///         stride = ssp::dominant_stride(&window);
///     }
/// }
/// assert_eq!(stride, Some(3));
/// # Ok::<(), hopp_types::Error>(())
/// ```
pub fn dominant_stride(window: &StreamWindow) -> Option<i64> {
    let l = window.len();
    let strides = window.stride_history;
    debug_assert_eq!(strides.len(), l - 1);
    let threshold = l / 2;

    // L is small (16): a quadratic count beats allocating a map.
    for (i, &candidate) in strides.iter().enumerate() {
        if candidate == 0 {
            continue;
        }
        // Only count each candidate once (at its first occurrence).
        if strides[..i].contains(&candidate) {
            continue;
        }
        let count = strides.iter().filter(|&&s| s == candidate).count();
        if count >= threshold {
            return Some(candidate);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::test_support::OwnedWindow;

    fn window(strides: &[i64]) -> OwnedWindow {
        let mut vpns = vec![1_000u64];
        for &s in strides {
            let last = *vpns.last().unwrap();
            vpns.push(last.checked_add_signed(s).unwrap());
        }
        OwnedWindow::from_vpns(&vpns)
    }

    #[test]
    fn uniform_stride_dominates() {
        assert_eq!(dominant_stride(&window(&[2; 15]).window()), Some(2));
        assert_eq!(dominant_stride(&window(&[-4; 15]).window()), Some(-4));
    }

    #[test]
    fn majority_with_interference() {
        // 8 of 15 strides are 3 (>= L/2 = 8), the rest are noise.
        let strides = [3, 7, 3, -1, 3, 3, 9, 3, 3, 2, 3, 5, 3, 11, 4];
        assert_eq!(dominant_stride(&window(&strides).window()), Some(3));
    }

    #[test]
    fn below_threshold_fails() {
        // 7 of 15 occurrences: one short of L/2 = 8.
        let strides = [3, 7, 3, -1, 3, 3, 9, 3, 1, 2, 3, 5, 3, 11, 4];
        assert_eq!(dominant_stride(&window(&strides).window()), None);
    }

    #[test]
    fn zero_stride_never_dominates() {
        assert_eq!(dominant_stride(&window(&[0; 15]).window()), None);
    }

    #[test]
    fn alternating_strides_fail() {
        // A two-stride ladder: SSP must reject it so LSP gets a chance.
        let strides = [2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2, 12, 2];
        assert_eq!(dominant_stride(&window(&strides).window()), Some(2));
        // With window 16, "2" occurs 8 times == L/2, so SSP *does*
        // claim it; likewise three tread strides per rise ("2" occurs
        // 10 >= 8 times):
        let strides = [2, 2, 12, 2, 2, 12, 2, 2, 12, 2, 2, 12, 2, 2, 12];
        assert_eq!(dominant_stride(&window(&strides).window()), Some(2));
        // A ladder whose rise appears as often as its tread is what
        // defeats SSP and needs LSP:
        let strides = [2, 12, 7, 2, 12, 7, 2, 12, 7, 2, 12, 7, 2, 12, 7];
        assert_eq!(dominant_stride(&window(&strides).window()), None);
    }
}
