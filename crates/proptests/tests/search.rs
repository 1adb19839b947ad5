//! Property tests for the work-counted match search the V1, V2 and V3
//! kernels share.
//!
//! [`search_position`] skips first-byte mismatches eight candidates at a
//! time and measures match lengths eight bytes at a time, yet it must
//! report exactly what the plain byte loop below reports: the same match
//! and the same [`Work`] (candidates visited, byte pairs compared), since
//! the cost model prices a launch from that work. The inputs cover both
//! kernel configurations, every position of the chunk (so windows
//! shorter than `window_size` at the start, and `limit < max_match` near
//! the end), all-equal runs that stop at the first maximal match, and
//! periodic and small-alphabet data full of partial matches.

use culzss::metered::{search_position, Work};
use culzss::CulzssParams;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::matchfind::FoundMatch;
use proptest::prelude::*;

/// The byte-at-a-time search the kernels model: candidates from
/// `pos - 1` down to the window start, each compared until a mismatch or
/// the limit, stopping at the first maximal match.
fn byte_loop_search(chunk: &[u8], pos: usize, config: &LzssConfig) -> (Option<FoundMatch>, Work) {
    let window_start = pos.saturating_sub(config.window_size);
    let mut work = Work::default();
    let mut best: Option<FoundMatch> = None;
    let limit = config.max_match.min(chunk.len() - pos);
    let mut candidate = pos;
    while candidate > window_start {
        candidate -= 1;
        work.candidates += 1;
        let mut len = 0usize;
        while len < limit && chunk[candidate + len] == chunk[pos + len] {
            len += 1;
        }
        work.compared_bytes += (len + usize::from(len < limit)) as u64;
        if len >= config.min_match && best.is_none_or(|b| len > b.length) {
            best = Some(FoundMatch { distance: pos - candidate, length: len });
            if len == config.max_match {
                break;
            }
        }
    }
    (best, work)
}

fn chunks() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..400),
        // Small alphabets: many first- and second-byte hits.
        proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b')], 0..400),
        proptest::collection::vec(prop_oneof![Just(b'x'), Just(b'y'), Just(b' ')], 0..400),
        // All-equal runs: the first candidate is already maximal.
        (any::<u8>(), 0usize..400).prop_map(|(byte, len)| vec![byte; len]),
        // Periodic data: maximal matches at the period, partial ones
        // around it.
        (proptest::collection::vec(any::<u8>(), 1..40), 1usize..60).prop_map(|(pat, reps)| pat
            .iter()
            .cycle()
            .take(pat.len() * reps)
            .copied()
            .collect()),
    ]
}

fn configs() -> [LzssConfig; 3] {
    [
        CulzssParams::v1().lzss_config(),
        CulzssParams::v2().lzss_config(),
        // A narrow window with long matches: windows shorter than eight
        // candidates and limits past one word.
        LzssConfig {
            window_size: 13,
            min_match: 2,
            max_match: 40,
            ..CulzssParams::v2().lzss_config()
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn search_equals_the_byte_loop_at_every_position(chunk in chunks()) {
        for config in configs() {
            for pos in 0..chunk.len() {
                prop_assert_eq!(
                    search_position(&chunk, pos, &config),
                    byte_loop_search(&chunk, pos, &config),
                    "pos {} of {} (window {}, max_match {})",
                    pos,
                    chunk.len(),
                    config.window_size,
                    config.max_match
                );
            }
        }
    }
}
