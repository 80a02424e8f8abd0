//! Property tests for the shared resync walker: whatever `try_at`
//! accepts or rejects, the walk tiles its input in order, merges
//! adjacent rejections into one gap, and always moves forward.

use isobar::salvage::{resync_walk, Walked};
use proptest::prelude::*;

/// `(data_len, start, verdicts)`: for each position, `Some(delta)`
/// means `try_at` answers with end `pos + delta` (deltas ≤ 0 or past
/// the data must count as rejections), `None` means it rejects.
fn walk_case() -> impl Strategy<Value = (usize, usize, Vec<Option<i16>>)> {
    (0usize..300).prop_flat_map(|len| {
        (
            0usize..len + 8,
            proptest::collection::vec(
                prop_oneof![
                    Just(None),
                    Just(None),
                    (-4i16..24).prop_map(Some),
                    (-4i16..2).prop_map(Some),
                ],
                len,
            ),
        )
            .prop_map(move |(start, verdicts)| (len, start, verdicts))
    })
}

fn walk(len: usize, start: usize, verdicts: &[Option<i16>]) -> (Vec<Walked<usize>>, Vec<usize>) {
    let data = vec![0u8; len];
    let mut probes = Vec::new();
    let mut steps = Vec::new();
    resync_walk(
        &data,
        start,
        |pos| {
            probes.push(pos);
            verdicts[pos].map(|delta| (pos, (pos as isize + delta as isize).max(0) as usize))
        },
        |w| steps.push(w),
    );
    (steps, probes)
}

/// Whether `try_at`'s answer at `pos` is one the walk must accept.
fn accepts(len: usize, verdicts: &[Option<i16>], pos: usize) -> bool {
    verdicts[pos].is_some_and(|d| d > 0 && pos + d as usize <= len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn items_and_gaps_tile_the_input_in_order((len, start, verdicts) in walk_case()) {
        let (steps, probes) = walk(len, start, &verdicts);
        let mut pos = start;
        let mut last_was_gap = false;
        for step in &steps {
            match *step {
                Walked::Item { offset, item } => {
                    prop_assert_eq!(offset, pos);
                    prop_assert_eq!(item, offset, "item belongs to its own probe");
                    prop_assert!(accepts(len, &verdicts, offset));
                    pos = offset + verdicts[offset].unwrap() as usize;
                    last_was_gap = false;
                }
                Walked::Gap { offset, len: gap } => {
                    prop_assert_eq!(offset, pos);
                    prop_assert!(gap > 0, "empty gap");
                    prop_assert!(!last_was_gap, "two adjacent gaps");
                    for p in offset..offset + gap {
                        prop_assert!(!accepts(len, &verdicts, p), "gap swallowed an item at {}", p);
                    }
                    pos = offset + gap;
                    last_was_gap = true;
                }
            }
        }
        prop_assert_eq!(pos, start.max(len), "walk covers [start, len)");
        // Each byte is probed at most once, so the walk is linear in
        // the input however try_at answers.
        prop_assert!(probes.len() <= len.saturating_sub(start));
        prop_assert!(probes.windows(2).all(|w| w[0] < w[1]), "probes move forward");
    }
}

#[test]
fn a_try_at_that_never_advances_cannot_stall_the_walk() {
    let data = [7u8; 64];
    for end_of in [|pos: usize| pos, |_| 0usize] {
        let mut steps = Vec::new();
        resync_walk(&data, 3, |pos| Some(((), end_of(pos))), |w| steps.push(w));
        assert_eq!(steps, vec![Walked::Gap { offset: 3, len: 61 }]);
    }
}

#[test]
fn an_end_past_the_data_is_a_rejection() {
    let data = [0u8; 10];
    let mut steps = Vec::new();
    resync_walk(
        &data,
        0,
        |pos| {
            (pos == 4)
                .then_some(((), 11))
                .or((pos == 6).then_some(((), 10)))
        },
        |w| steps.push(w),
    );
    assert_eq!(
        steps,
        vec![
            Walked::Gap { offset: 0, len: 6 },
            Walked::Item {
                offset: 6,
                item: ()
            },
        ]
    );
}
