//! Ladder-Stream-based Prefetch (LSP) — Algorithm 1 of the paper.
//!
//! Ladder streams (Figure 2) have a repetitive spatial pattern: a
//! series of concentrated accesses across streams (the *ladder tread*)
//! followed by a larger, stable stride (the *ladder rise*). LSP checks
//! whether the newest `M = 2` strides (the `pattern_target`) repeat
//! earlier in the stride history. If so, the stream's future follows the
//! spatial correlation between repetitions: the next stride of the
//! target pattern (`stride_target`) and the page distance between
//! pattern repetitions (`pattern_stride`) are taken as the majority
//! over the observed candidates.
//!
//! Worked example (paper's Figure 2, accesses `a1..a11`): on receiving
//! `a11` the pattern target is the strides `{a10→a11, a9→a10}`.
//! Candidates matched in history are `{a5→a6, a6→a7}` and
//! `{a1→a2, a2→a3}`; their next strides (`a7→a8`, `a3→a4`) vote for
//! `stride_target`, and the distances between repetition anchor points
//! (`a11−a7`, `a7−a3`) vote for `pattern_stride`. The page prefetched is
//! `VPN_A + stride_target + i × pattern_stride`.

use crate::stt::StreamWindow;

/// LSP's output: the two strides that place the prediction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LadderPrediction {
    /// The next stride of the target pattern.
    pub stride_target: i64,
    /// The page distance between successive pattern repetitions.
    pub pattern_stride: i64,
}

/// Most frequent value; ties go to the first-seen (which, with the
/// tail-first scan order used below, is the most recent candidate).
fn majority(values: &[i64]) -> Option<i64> {
    let mut best: Option<(i64, usize)> = None;
    for (i, &v) in values.iter().enumerate() {
        if values[..i].contains(&v) {
            continue;
        }
        let count = values.iter().filter(|&&x| x == v).count();
        if best.is_none_or(|(_, c)| count > c) {
            best = Some((v, count));
        }
    }
    best.map(|(v, _)| v)
}

/// The two vote lists of Algorithm 1, kept between calls so a
/// prediction reuses their capacity instead of allocating.
#[derive(Clone, Debug, Default)]
pub struct LadderVotes {
    /// Votes for `stride_target`: each candidate's next stride.
    next_stride: Vec<i64>,
    /// Votes for `pattern_stride`: distances between repetition anchors.
    stride_sum: Vec<i64>,
}

/// Runs Algorithm 1 on a training window, voting in `votes` (whose
/// previous contents are discarded).
///
/// Returns `None` when the newest 2-stride pattern has no earlier
/// repetition in the window (lines 14–15 of the algorithm: both output
/// strides zero means "no ladder found").
pub fn predict(window: &StreamWindow, votes: &mut LadderVotes) -> Option<LadderPrediction> {
    let strides = window.stride_history;
    let vpns = window.vpn_history;
    let n = strides.len(); // == L - 1
    if n < 4 {
        return None;
    }

    // pattern_target: the last two strides, (strides[n-2], strides[n-1]).
    let pattern = (strides[n - 2], strides[n - 1]);

    let LadderVotes {
        next_stride,
        stride_sum,
    } = votes;
    next_stride.clear();
    stride_sum.clear();
    // At most one vote per stride: size both lists once, up front.
    next_stride.reserve(n);
    stride_sum.reserve(n);
    // The anchor of the target pattern is its last page: VPN_A, at
    // vpns[n] (== vpns[L-1]).
    let mut last_anchor = n;

    // Scan from the tail so repetition distances chain backwards
    // (a11-a7, then a7-a3, as in the worked example). A candidate at i
    // covers strides (i, i+1) and needs a next stride at i+2, which must
    // be strictly older than the target's own strides.
    let mut i = n as i64 - 4;
    while i >= 0 {
        let idx = i as usize;
        if (strides[idx], strides[idx + 1]) == pattern {
            next_stride.push(strides[idx + 2]);
            // Candidate anchor: last page of the candidate pattern.
            let anchor = idx + 2;
            stride_sum.push(vpns[last_anchor].stride_from(vpns[anchor]));
            last_anchor = anchor;
            // A pattern occurrence consumes its two strides; step past
            // it so overlapping self-matches don't double count.
            i -= 2;
        } else {
            i -= 1;
        }
    }

    if next_stride.is_empty() {
        return None;
    }
    Some(LadderPrediction {
        stride_target: majority(next_stride)?,
        pattern_stride: majority(stride_sum)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stt::test_support::OwnedWindow;

    fn predict(w: &OwnedWindow) -> Option<LadderPrediction> {
        super::predict(&w.window(), &mut LadderVotes::default())
    }

    /// The paper's Figure 2: treads of stride 2 (a1,a2,a3,a4), then a
    /// rise. Pages: 0,2,4,6 then 18,20,22,24 then 36,38,40,42 ...
    fn figure2_vpns(rungs: usize) -> Vec<u64> {
        let mut v = Vec::new();
        for r in 0..rungs {
            let base = 18 * r as u64;
            for k in 0..4 {
                v.push(base + 2 * k);
            }
        }
        v
    }

    #[test]
    fn detects_figure_2_ladder() {
        // Window of the last 13 accesses of 4 rungs: ends mid-tread so
        // the newest 2 strides are (2, 2), repeated in earlier rungs.
        let vpns = figure2_vpns(4);
        let w = OwnedWindow::from_vpns(&vpns[vpns.len() - 13..]);
        let p = predict(&w).expect("ladder found");
        // The window ends on a rung's last page, so the candidates'
        // next stride is the *rise* (12); repetitions are 18 apart.
        assert_eq!(p.stride_target, 12);
        assert_eq!(p.pattern_stride, 18);
    }

    #[test]
    fn detects_rise_position() {
        // End the window right at a rung boundary: newest strides
        // (2, 12) with treads [2,2,2] and rise 12.
        // Pages per rung: b, b+2, b+4, b+6; rise to b+18.
        let mut vpns = Vec::new();
        for r in 0..4u64 {
            for k in 0..4u64 {
                vpns.push(18 * r + 2 * k);
            }
        }
        vpns.push(18 * 4); // first page of the next rung
        let w = OwnedWindow::from_vpns(&vpns[vpns.len() - 14..]);
        assert_eq!(w.window().stride_a(), 12);
        let p = predict(&w).expect("ladder found");
        // After a (2, 12) pair the tread restarts: next stride is 2, and
        // the repetition distance is one rung (18 pages).
        assert_eq!(p.stride_target, 2);
        assert_eq!(p.pattern_stride, 18);
    }

    #[test]
    fn no_repetition_means_none() {
        // Monotone distinct strides: the newest pair never repeats.
        let w =
            OwnedWindow::from_vpns(&[0, 1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 66, 78, 91, 105, 120]);
        assert_eq!(predict(&w), None);
    }

    #[test]
    fn short_window_is_rejected() {
        let w = OwnedWindow::from_vpns(&[0, 2, 4, 6]);
        assert_eq!(predict(&w), None);
    }

    #[test]
    fn majority_vote_survives_one_distorted_rung() {
        // Four clean rungs + one rung with a distorted tread. The
        // distorted rung offers no pattern match, so the repetition
        // chain skips it (one 36-page gap), but the majority vote still
        // recovers the true rung distance of 18.
        let vpns: Vec<u64> = vec![
            0, 2, 4, 6, // rung 0
            18, 20, 22, 24, // rung 1
            36, 38, 41, 42, // rung 2 (distorted: strides 2, 3, 1)
            54, 56, 58, 60, // rung 3
            72, 74, 76, 78, // rung 4
        ];
        let w = OwnedWindow::from_vpns(&vpns);
        let p = predict(&w).expect("ladder found");
        assert_eq!(p.stride_target, 12, "next comes the rise");
        assert_eq!(p.pattern_stride, 18, "majority beats the 36 gap");
    }

    #[test]
    fn majority_helper() {
        assert_eq!(majority(&[]), None);
        assert_eq!(majority(&[5]), Some(5));
        assert_eq!(majority(&[1, 2, 2, 3]), Some(2));
        // Tie: first-seen wins.
        assert_eq!(majority(&[7, 9, 7, 9]), Some(7));
    }

    #[test]
    fn vote_ties_resolve_to_the_most_recent_candidate() {
        // Two repetitions of the (2, 2) target whose continuations
        // disagree (7 vs 5) and whose repetition distances disagree
        // (12 vs 10): one vote each. The tail-first scan pushes the
        // newer candidate first, and `majority` keeps the first-seen
        // value on ties, so the prediction follows the *recent* ladder
        // geometry, not the stale one.
        // Strides: [2,2,5, 1, 2,2,7, 1, 2,2] — target (2,2).
        let w = OwnedWindow::from_vpns(&[0, 2, 4, 9, 10, 12, 14, 21, 22, 24, 26]);
        let p = predict(&w).expect("ladder found");
        assert_eq!(p.stride_target, 7, "newest continuation wins the tie");
        assert_eq!(p.pattern_stride, 12, "newest repetition distance wins");
    }

    #[test]
    fn minimal_window_with_one_repetition_predicts() {
        // Four strides is the floor (`n < 4` rejects): the single
        // candidate at the window head is the only vote, and its
        // continuation is the target's own first stride — the ladder
        // degenerates to a plain stride-2 stream, correctly predicted.
        let w = OwnedWindow::from_vpns(&[0, 2, 4, 6, 8]);
        assert_eq!(
            predict(&w),
            Some(LadderPrediction {
                stride_target: 2,
                pattern_stride: 4,
            })
        );
    }

    #[test]
    fn target_without_a_full_earlier_repetition_is_rejected() {
        // Window is long enough (n = 4) but the history before the
        // target holds only fragments — never the full (2, 2) pair —
        // so Algorithm 1 must decline rather than vote on thin air.
        let w = OwnedWindow::from_vpns(&[0, 1, 4, 6, 8]); // strides [1,3,2,2]
        assert_eq!(predict(&w), None);
    }

    #[test]
    fn descending_ladder_predicts_negative_strides() {
        // A ladder walked downwards: treads of stride -2, rises of -12,
        // rungs 18 pages apart in the negative direction. Both output
        // strides must come back negative.
        let w = OwnedWindow::from_vpns(&[100, 98, 96, 94, 82, 80, 78, 76, 64, 62, 60, 58]);
        let p = predict(&w).expect("descending ladder found");
        assert_eq!(p.stride_target, -12);
        assert_eq!(p.pattern_stride, -18);
    }

    #[test]
    fn zigzag_pattern_with_sign_flips_inside_the_tread_is_tracked() {
        // The stride alternates sign every access (+3, -1, +3, -1, …):
        // the pattern target itself contains a sign flip. Repetitions
        // overlap-free every 2 strides; the stream advances 2 pages per
        // repetition.
        let w = OwnedWindow::from_vpns(&[0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10]);
        let p = predict(&w).expect("zigzag found");
        assert_eq!(p.stride_target, 3);
        assert_eq!(p.pattern_stride, 2);
    }

    #[test]
    fn direction_flip_mid_stream_invalidates_the_old_ladder() {
        // An ascending rung, then the stream reverses. The newest pair
        // (-2, -2) has no repetition in the ascending history, so the
        // stale ascending geometry must not produce a prediction.
        let w = OwnedWindow::from_vpns(&[0, 2, 4, 16, 18, 20, 18, 16]);
        assert_eq!(predict(&w), None);
    }
}
