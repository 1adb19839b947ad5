//! Warp-level memory-access analysis: global-memory coalescing and
//! shared-memory bank conflicts.
//!
//! These are the two effects the paper's optimization section is built
//! around: "memory accesses must be coalesced … anytime an access is needed
//! to an address from a block, the entire block must be transferred", and
//! "the shared memory is divided into banks … if there are conflicts, the
//! accesses are serialized". The analytics below are applied to logged
//! per-warp access lists (exact path) and reused in closed form by the bulk
//! metering helpers (fast path).
//!
//! The exact analysis allocates nothing for an ordinary warp: each
//! instruction's accesses become word (or segment) spans in a stack
//! buffer, which are sorted and merged, and the distinct words of the
//! merged spans are counted per bank in a fixed array. Only an
//! instruction wider than 64 lanes, or a device with more than 64 banks,
//! spills its scratch to the heap.

/// Lanes, and banks, whose scratch fits on the stack.
const INLINE: usize = 64;

/// One logged memory access: starting byte address and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Starting byte address (device address space is flat per buffer).
    pub addr: u64,
    /// Access width in bytes.
    pub bytes: u32,
}

/// Runs `f` on the sorted, disjoint, non-adjacent `unit`-sized spans that
/// `accesses` touch (`unit` a power of two). Zero-width accesses touch
/// nothing.
fn with_merged_spans<R>(accesses: &[Access], unit: u64, f: impl FnOnce(&[(u64, u64)]) -> R) -> R {
    debug_assert!(unit.is_power_of_two());
    let shift = unit.trailing_zeros();
    let span_of = |a: &Access| (a.addr >> shift, (a.addr + u64::from(a.bytes) - 1) >> shift);
    // One lane (single-thread phases): nothing to sort or merge.
    if let [a] = accesses {
        return if a.bytes == 0 { f(&[]) } else { f(&[span_of(a)]) };
    }
    let mut inline = [(0u64, 0u64); INLINE];
    let mut spilled = Vec::new();
    let buf = if accesses.len() <= INLINE {
        &mut inline[..accesses.len()]
    } else {
        spilled.resize(accesses.len(), (0, 0));
        &mut spilled[..]
    };
    // Merge while the spans arrive in order (lanes usually log ascending
    // addresses); a scattered instruction is sorted and merged after.
    let mut n = 0;
    let mut sorted = true;
    let mut open: Option<(u64, u64)> = None;
    for a in accesses.iter().filter(|a| a.bytes > 0) {
        let (first, last) = span_of(a);
        if let Some((open_first, open_last)) = open {
            if sorted && first >= open_first && first <= open_last.saturating_add(1) {
                open = Some((open_first, open_last.max(last)));
                continue;
            }
            sorted &= first > open_last;
            buf[n] = (open_first, open_last);
            n += 1;
        }
        open = Some((first, last));
    }
    if let Some(span) = open {
        buf[n] = span;
        n += 1;
    }
    let spans = &mut buf[..n];
    let mut merged = n;
    if !sorted {
        spans.sort_unstable();
        merged = 0;
        for i in 0..n {
            let (first, last) = spans[i];
            if merged > 0 && first <= spans[merged - 1].1.saturating_add(1) {
                spans[merged - 1].1 = spans[merged - 1].1.max(last);
            } else {
                spans[merged] = (first, last);
                merged += 1;
            }
        }
    }
    f(&spans[..merged])
}

/// Maximum over banks of the number of distinct words mapped to each —
/// the serialized cycles of one shared-memory instruction. `spans` are
/// inclusive word ranges that must not overlap (every word is counted
/// once per span it lies in). No spans means no access: 0 cycles.
fn max_words_per_bank(spans: impl IntoIterator<Item = (u64, u64)>, banks: u64) -> u64 {
    // A span of `len` words gives every bank `len / banks` words, plus one
    // more to the `len % banks` banks starting at its first word's bank.
    // Those extras are tallied per bank; each span adds at most one to a
    // bank, so a tally never exceeds the span count.
    let mut inline = [0u32; INLINE];
    let mut spilled = Vec::new();
    let extra = if banks as usize <= INLINE {
        &mut inline[..banks as usize]
    } else {
        spilled.resize(banks as usize, 0);
        &mut spilled[..]
    };
    let mut full_rounds = 0u64;
    let mut most_extra = 0u32;
    for (first, last) in spans {
        let mut len = last - first + 1;
        if len >= banks {
            full_rounds += len / banks;
            len %= banks;
        }
        let mut bank = (first % banks) as usize;
        for _ in 0..len {
            extra[bank] += 1;
            most_extra = most_extra.max(extra[bank]);
            bank += 1;
            if bank == extra.len() {
                bank = 0;
            }
        }
    }
    full_rounds + u64::from(most_extra)
}

/// Number of `segment_bytes`-aligned segments touched by one warp-wide
/// memory instruction — i.e. the number of global-memory transactions it
/// issues on Fermi-class hardware.
///
/// `accesses` holds the per-thread accesses of a single warp instruction
/// (at most `warp_size` entries; inactive threads are simply absent).
pub fn transactions_for_warp(accesses: &[Access], segment_bytes: u64) -> u64 {
    with_merged_spans(accesses, segment_bytes, |spans| {
        spans.iter().map(|&(first, last)| last - first + 1).sum()
    })
}

/// Serialized shared-memory cycles for one warp-wide access instruction.
///
/// The shared memory has `banks` banks, each 4 bytes wide. Distinct threads
/// hitting distinct 4-byte words in the same bank serialize; multiple
/// threads reading the *same* word broadcast in a single cycle (Fermi
/// broadcast rule). The returned value is the number of serialized bank
/// cycles, i.e. `1` for a conflict-free access, `n` for an `n`-way
/// conflict.
pub fn shared_conflict_cycles(accesses: &[Access], banks: u64) -> u64 {
    // A wider access touches each of its words.
    with_merged_spans(accesses, 4, |spans| match (spans.first(), spans.last()) {
        // All words within `banks` consecutive words: no two share a bank.
        (Some(&(first, _)), Some(&(_, last))) if last - first < banks => 1,
        _ => max_words_per_bank(spans.iter().copied(), banks),
    })
}

/// Closed-form transaction count for `threads` threads each accessing
/// `bytes_per_thread` consecutive bytes at stride `stride_bytes` from
/// `base`: the pattern produced by cooperative loads (`stride == bytes` ⇒
/// fully coalesced) and by per-thread private buffers (`stride ≫ bytes` ⇒
/// one transaction per thread).
pub fn strided_transactions(
    base: u64,
    threads: u64,
    bytes_per_thread: u64,
    stride_bytes: u64,
    segment_bytes: u64,
) -> u64 {
    if threads == 0 || bytes_per_thread == 0 {
        return 0;
    }
    // Contiguous case: one span.
    if stride_bytes == bytes_per_thread {
        let total = threads * bytes_per_thread;
        let first = base / segment_bytes;
        let last = (base + total - 1) / segment_bytes;
        return last - first + 1;
    }
    // General case: count segments per thread and merge adjacent threads
    // that share a segment (only possible when stride < segment).
    let mut count = 0u64;
    let mut prev_last: Option<u64> = None;
    for t in 0..threads {
        let start = base + t * stride_bytes;
        let first = start / segment_bytes;
        let last = (start + bytes_per_thread - 1) / segment_bytes;
        let first = match prev_last {
            Some(p) if first <= p => p + 1,
            _ => first,
        };
        if first <= last {
            count += last - first + 1;
        }
        prev_last = Some(last.max(prev_last.unwrap_or(0)));
    }
    count
}

/// Closed-form conflict degree for `threads` threads accessing one byte
/// each at `base + tid * stride_bytes`: the maximum number of distinct
/// words mapping to a single bank. This models the paper's two patterns:
/// per-thread windows at 128-byte stride (fully serialized on Fermi) and
/// the V2 staggered layout ("an offset of 4 characters … distance" — no
/// conflicts).
pub fn strided_conflict_ways(threads: u64, stride_bytes: u64, banks: u64) -> u64 {
    // Words are non-decreasing in `tid`, so dropping repeats of the
    // previous word leaves each distinct word exactly once.
    let mut words = (0..threads).map(|t| (t * stride_bytes) / 4).peekable();
    let distinct = std::iter::from_fn(|| {
        let w = words.next()?;
        while words.next_if_eq(&w).is_some() {}
        Some((w, w))
    });
    max_words_per_bank(distinct, banks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(addr: u64, bytes: u32) -> Access {
        Access { addr, bytes }
    }

    #[test]
    fn fully_coalesced_warp_is_one_transaction() {
        // 32 threads × 4 bytes, consecutive, 128-byte aligned.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4, 4)).collect();
        assert_eq!(transactions_for_warp(&accesses, 128), 1);
    }

    #[test]
    fn misaligned_warp_needs_two_transactions() {
        let accesses: Vec<Access> = (0..32).map(|t| acc(64 + t * 4, 4)).collect();
        assert_eq!(transactions_for_warp(&accesses, 128), 2);
    }

    #[test]
    fn scattered_warp_is_one_transaction_per_thread() {
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4096, 4)).collect();
        assert_eq!(transactions_for_warp(&accesses, 128), 32);
    }

    #[test]
    fn byte_accesses_within_one_segment_coalesce() {
        // The paper's V2 load: 128 threads × 1 byte = "one memory
        // transaction" per 128-byte segment; here one warp covers 32 bytes.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t, 1)).collect();
        assert_eq!(transactions_for_warp(&accesses, 128), 1);
    }

    #[test]
    fn wide_access_spanning_segments_counts_both() {
        assert_eq!(transactions_for_warp(&[acc(120, 16)], 128), 2);
        assert_eq!(transactions_for_warp(&[acc(0, 0)], 128), 0);
        assert_eq!(transactions_for_warp(&[], 128), 0);
    }

    #[test]
    fn conflict_free_shared_access() {
        // 32 threads hitting 32 consecutive words: banks 0..31.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 4, 4)).collect();
        assert_eq!(shared_conflict_cycles(&accesses, 32), 1);
    }

    #[test]
    fn same_word_broadcasts() {
        let accesses: Vec<Access> = (0..32).map(|_| acc(40, 4)).collect();
        assert_eq!(shared_conflict_cycles(&accesses, 32), 1);
    }

    #[test]
    fn stride_128_bytes_fully_serializes() {
        // Per-thread buffers at 128-byte stride: word = t*32, bank = 0 ∀t.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 128, 1)).collect();
        assert_eq!(shared_conflict_cycles(&accesses, 32), 32);
    }

    #[test]
    fn two_way_conflict() {
        // Threads 0..32 at stride 64 bytes: word = t*16, bank = (t*16)%32 —
        // banks 0 and 16, 16 distinct words each.
        let accesses: Vec<Access> = (0..32).map(|t| acc(t * 64, 1)).collect();
        assert_eq!(shared_conflict_cycles(&accesses, 32), 16);
    }

    #[test]
    fn strided_transactions_contiguous() {
        assert_eq!(strided_transactions(0, 32, 4, 4, 128), 1);
        assert_eq!(strided_transactions(0, 128, 1, 1, 128), 1);
        assert_eq!(strided_transactions(64, 32, 4, 4, 128), 2);
    }

    #[test]
    fn strided_transactions_scattered() {
        // 128 threads each grabbing 1 byte at 4096-byte stride: 128 txns.
        assert_eq!(strided_transactions(0, 128, 1, 4096, 128), 128);
        // Stride 64 with 4-byte accesses: two threads share a segment.
        assert_eq!(strided_transactions(0, 32, 4, 64, 128), 16);
    }

    #[test]
    fn strided_transactions_matches_exact_analysis() {
        for &(threads, bytes, stride) in
            &[(32u64, 1u64, 1u64), (32, 4, 4), (32, 1, 128), (32, 4, 64), (17, 3, 40)]
        {
            let accesses: Vec<Access> =
                (0..threads).map(|t| acc(1000 + t * stride, bytes as u32)).collect();
            let exact = transactions_for_warp(&accesses, 128);
            let closed = strided_transactions(1000, threads, bytes, stride, 128);
            assert_eq!(exact, closed, "threads={threads} bytes={bytes} stride={stride}");
        }
    }

    #[test]
    fn strided_conflicts_match_exact_analysis() {
        for &stride in &[1u64, 4, 8, 32, 64, 128] {
            let accesses: Vec<Access> = (0..32).map(|t| acc(t * stride, 1)).collect();
            let exact = shared_conflict_cycles(&accesses, 32);
            let closed = strided_conflict_ways(32, stride, 32);
            assert_eq!(exact, closed, "stride={stride}");
        }
    }

    #[test]
    fn staggered_v2_layout_is_conflict_free() {
        // Paper: "setting each thread with an offset of 4 characters"
        // (one 4-byte word apart) avoids conflicts.
        assert_eq!(strided_conflict_ways(32, 4, 32), 1);
    }
}
