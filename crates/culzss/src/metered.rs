//! Work-counted LZSS search routines shared by the V1 and V2 kernels.
//!
//! The kernels must (a) produce exactly the tokens the algorithm
//! specifies and (b) report how much machine work producing them took, so
//! the simulator's cost model can price the launch. This module provides
//! search routines that return both: the match result and a [`Work`]
//! record counting compared bytes and visited candidates.
//!
//! The op-cost constants translate algorithmic counts into issued
//! instructions. They are the calibration surface of the reproduction
//! (DESIGN.md §6): one compared byte costs two loads, a comparison and a
//! branch plus index arithmetic; every candidate visit costs loop
//! overhead. They are deliberately coarse — the paper's comparisons span
//! datasets and implementations, so only relative magnitudes matter.

use culzss_lzss::config::LzssConfig;
use culzss_lzss::matchfind::FoundMatch;
use culzss_lzss::token::Token;

/// Issued instructions per compared byte pair (2 loads + cmp + branch +
/// addressing on a machine without fused compare-branch).
pub const OPS_PER_COMPARED_BYTE: u64 = 6;
/// Issued instructions of per-candidate loop overhead.
pub const OPS_PER_CANDIDATE: u64 = 4;
/// Issued instructions per emitted token (flag bookkeeping + stores).
pub const OPS_PER_TOKEN: u64 = 12;

/// Algorithmic work performed by a search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Byte pairs compared.
    pub compared_bytes: u64,
    /// Window candidates visited.
    pub candidates: u64,
}

impl Work {
    /// Adds another work record.
    pub fn add(&mut self, other: Work) {
        self.compared_bytes += other.compared_bytes;
        self.candidates += other.candidates;
    }

    /// Issued-instruction estimate.
    pub fn ops(&self) -> u64 {
        self.compared_bytes * OPS_PER_COMPARED_BYTE + self.candidates * OPS_PER_CANDIDATE
    }

    /// Buffer (shared-memory) accesses: each compared pair touches the
    /// window byte and the lookahead byte.
    pub fn accesses(&self) -> u64 {
        self.compared_bytes * 2
    }
}

/// Brute-force longest-match search at `pos`, identical in result to
/// [`culzss_lzss::matchfind::BruteForce`], but also counting work.
/// Matches never cross the chunk boundary (the slice *is* the chunk).
///
/// The modelled search visits candidates from `pos - 1` down to the
/// window start, comparing bytes until a mismatch or the length limit,
/// and stops early at the first maximal match. Its [`Work`] is that of
/// this byte loop: every visited candidate costs one compared pair (its
/// first byte), and a candidate whose first byte matches adds its match
/// length, less one when the match stopped at the limit rather than on a
/// mismatch. The host gets there faster than the loop would: it tests
/// the first two bytes of eight candidates at a time, counts the
/// candidates that match on one byte only, and measures the remaining
/// match lengths eight bytes at a time. `min_match >= 2` (as
/// [`LzssConfig::validate`] requires), so a one-byte match is never the
/// result.
pub fn search_position(
    chunk: &[u8],
    pos: usize,
    config: &LzssConfig,
) -> (Option<FoundMatch>, Work) {
    debug_assert!(config.min_match >= 2);
    let window_start = pos.saturating_sub(config.window_size);
    let limit = config.max_match.min(chunk.len() - pos);
    if limit < 2 {
        // Every candidate compares `limit` bytes, and none can match.
        let candidates = (pos - window_start) as u64;
        return (None, Work { compared_bytes: candidates * limit as u64, candidates });
    }
    let mut best: Option<FoundMatch> = None;
    let mut lowest = window_start;
    // Σ over first-byte hits of (len − [len == limit]), split into the
    // hits that stop at the second byte (each adds 1, as limit ≥ 2) and
    // those measured one by one.
    let mut one_byte_hits = 0u64;
    let mut longer_hit_bytes = 0u64;
    let mut visit = |candidate: usize| {
        let len = match_length(chunk, candidate, pos, limit);
        longer_hit_bytes += (len - usize::from(len == limit)) as u64;
        if len >= config.min_match && best.is_none_or(|b| len > b.length) {
            best = Some(FoundMatch { distance: pos - candidate, length: len });
            if len == config.max_match {
                lowest = candidate;
                return true;
            }
        }
        false
    };
    let (first, second) = (chunk[pos], chunk[pos + 1]);
    let (first_x8, second_x8) = (u64::from(first) * LOW_BYTES, u64::from(second) * LOW_BYTES);
    let mut end = pos;
    'scan: {
        while end - window_start >= 8 {
            end -= 8;
            // Byte k flags candidate `end + k`; `chunk[end + 1..end + 9]`
            // holds their second bytes (end + 9 <= pos + 1 < chunk.len()).
            let hits = zero_bytes(load_u64(chunk, end) ^ first_x8);
            let mut longer = hits & zero_bytes(load_u64(chunk, end + 1) ^ second_x8);
            let one_byte = hits & !longer;
            while longer != 0 {
                let byte = (63 - longer.leading_zeros()) as usize / 8;
                if visit(end + byte) {
                    // Only candidates above the stopping one were visited.
                    one_byte_hits += u64::from((one_byte >> (8 * byte) >> 8).count_ones());
                    break 'scan;
                }
                longer &= !(0x80 << (8 * byte));
            }
            one_byte_hits += u64::from(one_byte.count_ones());
        }
        for candidate in (window_start..end).rev() {
            if chunk[candidate] == first {
                if chunk[candidate + 1] != second {
                    one_byte_hits += 1;
                } else if visit(candidate) {
                    break 'scan;
                }
            }
        }
    }
    let candidates = (pos - lowest) as u64;
    let compared_bytes = candidates + one_byte_hits + longer_hit_bytes;
    (best, Work { compared_bytes, candidates })
}

/// `0x01` in every byte.
const LOW_BYTES: u64 = u64::MAX / 255;

/// `0x80` in each byte of `word` that is zero, `0x00` in every other
/// byte (exact: no borrow crosses a byte).
fn zero_bytes(word: u64) -> u64 {
    let high = LOW_BYTES * 0x80;
    !(((word & !high) + !high) | word | !high)
}

/// The eight bytes at `at`, little-endian.
fn load_u64(chunk: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(chunk[at..at + 8].try_into().unwrap())
}

/// Length of the common prefix of `chunk[candidate..]` and
/// `chunk[pos..]`, capped at `limit` (`pos + limit <= chunk.len()`).
fn match_length(chunk: &[u8], candidate: usize, pos: usize, limit: usize) -> usize {
    let mut len = 0;
    while len + 8 <= limit {
        let diff = load_u64(chunk, candidate + len) ^ load_u64(chunk, pos + len);
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    while len < limit && chunk[candidate + len] == chunk[pos + len] {
        len += 1;
    }
    len
}

/// Greedy parse with skipping — the serial/V1 processing order: matched
/// positions are not searched again.
pub fn greedy_parse(chunk: &[u8], config: &LzssConfig) -> (Vec<Token>, Work) {
    let mut tokens = Vec::with_capacity(chunk.len() / 4);
    let work = greedy_parse_into(chunk, config, &mut tokens);
    (tokens, work)
}

/// [`greedy_parse`] appending into a reusable token buffer — the
/// allocation-free path used by the pooled V1 kernel.
pub fn greedy_parse_into(chunk: &[u8], config: &LzssConfig, tokens: &mut Vec<Token>) -> Work {
    let mut work = Work::default();
    let mut pos = 0usize;
    while pos < chunk.len() {
        let (found, w) = search_position(chunk, pos, config);
        work.add(w);
        match found {
            Some(m) => {
                tokens.push(Token::Match { distance: m.distance as u16, length: m.length as u16 });
                pos += m.length;
            }
            None => {
                tokens.push(Token::Literal(chunk[pos]));
                pos += 1;
            }
        }
    }
    work
}

/// Per-position match record produced by the V2 matching kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PosMatch {
    /// Match distance (0 = no match of at least `min_match`).
    pub distance: u16,
    /// Match length (0 = no match).
    pub length: u16,
    /// Work spent on this position (per-thread metering).
    pub work: Work,
}

/// Searches one position unconditionally — V2's redundant all-positions
/// matching ("we need to search for all characters and record the
/// encoding information").
pub fn search_position_v2(chunk: &[u8], pos: usize, config: &LzssConfig) -> PosMatch {
    let (found, work) = search_position(chunk, pos, config);
    match found {
        Some(m) => PosMatch { distance: m.distance as u16, length: m.length as u16, work },
        None => PosMatch { distance: 0, length: 0, work },
    }
}

/// The CPU-side selection pass of V2: walk the positions greedily, taking
/// recorded matches and skipping the positions they cover. Produces the
/// same tokens as [`greedy_parse`] would.
pub fn select_tokens(chunk: &[u8], matches: &[PosMatch], config: &LzssConfig) -> Vec<Token> {
    debug_assert_eq!(chunk.len(), matches.len());
    let mut tokens = Vec::with_capacity(chunk.len() / 4);
    select_with(chunk, config, &mut tokens, |pos| {
        let m = matches[pos];
        (m.distance, m.length)
    });
    tokens
}

/// [`select_tokens`] directly over the raw `(distance, length)` records
/// the V2 kernel ships back, appending into a reusable token buffer —
/// the allocation-free selection path of the pipeline (no intermediate
/// [`PosMatch`] array, no fresh token vector per chunk).
pub fn select_records_into(
    chunk: &[u8],
    records: &[(u16, u16)],
    config: &LzssConfig,
    tokens: &mut Vec<Token>,
) {
    debug_assert_eq!(chunk.len(), records.len());
    select_with(chunk, config, tokens, |pos| records[pos]);
}

fn select_with(
    chunk: &[u8],
    config: &LzssConfig,
    tokens: &mut Vec<Token>,
    record_at: impl Fn(usize) -> (u16, u16),
) {
    let mut pos = 0usize;
    while pos < chunk.len() {
        let (distance, length) = record_at(pos);
        if length as usize >= config.min_match {
            tokens.push(Token::Match { distance, length });
            pos += length as usize;
        } else {
            tokens.push(Token::Literal(chunk[pos]));
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use culzss_lzss::matchfind::{BruteForce, MatchFinder};
    use culzss_lzss::serial;

    fn cfg() -> LzssConfig {
        CulzssParamsLike::v2()
    }

    /// Local alias so tests read naturally.
    struct CulzssParamsLike;
    impl CulzssParamsLike {
        fn v2() -> LzssConfig {
            crate::params::CulzssParams::v2().lzss_config()
        }
        fn v1() -> LzssConfig {
            crate::params::CulzssParams::v1().lzss_config()
        }
    }

    #[test]
    fn search_matches_brute_force_reference() {
        let config = cfg();
        let data = b"abcabcabc xyz xyz abcabc zzzzzzzzzzzzzz abc".repeat(3);
        let mut reference = BruteForce::new();
        for pos in 0..data.len() {
            let (found, work) = search_position(&data, pos, &config);
            assert_eq!(found, reference.find(&data, pos, &config), "pos {pos}");
            if pos > 0 {
                assert!(work.candidates > 0);
            }
        }
    }

    #[test]
    fn greedy_parse_equals_serial_tokenize() {
        for config in [CulzssParamsLike::v1(), CulzssParamsLike::v2()] {
            let data = b"the cat sat on the mat, the cat sat on the hat".repeat(4);
            let (tokens, _) = greedy_parse(&data, &config);
            assert_eq!(tokens, serial::tokenize(&data, &config));
        }
    }

    #[test]
    fn selection_reproduces_greedy_parse() {
        let config = cfg();
        let data = b"select me, select me again, and again and again".repeat(5);
        let matches: Vec<PosMatch> =
            (0..data.len()).map(|p| search_position_v2(&data, p, &config)).collect();
        let selected = select_tokens(&data, &matches, &config);
        let (greedy, _) = greedy_parse(&data, &config);
        assert_eq!(selected, greedy);
    }

    #[test]
    fn record_selection_matches_posmatch_selection() {
        let config = cfg();
        let data = b"raw records and PosMatch selection must agree, agree, agree".repeat(6);
        let matches: Vec<PosMatch> =
            (0..data.len()).map(|p| search_position_v2(&data, p, &config)).collect();
        let records: Vec<(u16, u16)> = matches.iter().map(|m| (m.distance, m.length)).collect();
        let mut tokens = vec![Token::Literal(99)]; // pre-existing content survives
        select_records_into(&data, &records, &config, &mut tokens);
        assert_eq!(tokens[0], Token::Literal(99));
        assert_eq!(&tokens[1..], select_tokens(&data, &matches, &config));
    }

    #[test]
    fn greedy_parse_into_appends() {
        let config = cfg();
        let data = b"append me, append me, append me".repeat(3);
        let (expected, expected_work) = greedy_parse(&data, &config);
        let mut tokens = Vec::new();
        let work = greedy_parse_into(&data, &config, &mut tokens);
        assert_eq!(tokens, expected);
        assert_eq!(work, expected_work);
    }

    #[test]
    fn skipping_saves_work_on_compressible_data() {
        // The paper's §V argument: serial/V1 skip matched positions, V2
        // cannot — on highly repetitive data the difference is large.
        let config = cfg();
        let data: Vec<u8> = b"ABCDEFGHIJKLMNOPQRST".repeat(200); // period 20
        let (_, greedy_work) = greedy_parse(&data, &config);
        let full_work: u64 =
            (0..data.len()).map(|p| search_position_v2(&data, p, &config).work.ops()).sum();
        assert!(
            full_work > greedy_work.ops() * 5,
            "full {} vs greedy {}",
            full_work,
            greedy_work.ops()
        );
    }

    #[test]
    fn work_scales_with_window_occupancy() {
        let config = cfg();
        let data = vec![7u8; 600];
        // Early positions have small windows, later ones full windows,
        // but max-match early termination bounds the work per position.
        let (_, w_early) = search_position(&data, 1, &config);
        let (full, w_late) = search_position(&data, 500, &config);
        assert_eq!(full.unwrap().length, config.max_match);
        assert!(w_late.ops() >= w_early.ops());
    }

    #[test]
    fn v2_search_reports_no_match_as_zero() {
        let config = cfg();
        let data = b"abcdefgh";
        let m = search_position_v2(data, 4, &config);
        assert_eq!((m.distance, m.length), (0, 0));
    }

    #[test]
    fn work_accessors() {
        let w = Work { compared_bytes: 10, candidates: 4 };
        assert_eq!(w.ops(), 10 * OPS_PER_COMPARED_BYTE + 4 * OPS_PER_CANDIDATE);
        assert_eq!(w.accesses(), 20);
        let mut acc = Work::default();
        acc.add(w);
        acc.add(w);
        assert_eq!(acc.compared_bytes, 20);
    }
}
