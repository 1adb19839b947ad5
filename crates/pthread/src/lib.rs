//! # culzss-pthread — the paper's POSIX-threads LZSS baseline
//!
//! "To be fair to the CPU implementation and give the opportunity to use
//! parallelism, we also implemented a CPU threaded version of the LZSS
//! algorithm using the POSIX threads. Each thread is given with some chunk
//! of the file and the chunks are compressed concurrently. After each
//! thread compresses the given data, individual compressed chunks are
//! reassembled to form the final output."
//!
//! This crate reproduces that design with OS threads (crossbeam's scoped
//! threads over `std::thread`): the input is split into chunks, worker
//! threads own static contiguous ranges of chunks (exactly the paper's
//! one-chunk-per-thread scheme when `chunks == threads`), each chunk is
//! compressed independently with the serial LZSS codec, and the pieces are
//! reassembled into the shared [`culzss_lzss::container`] format — which is
//! also what enables parallel decompression.
//!
//! These two worker loops ([`compress_bodies`], [`decompress_parsed`]) are
//! the only chunk-parallel CPU codec for containers. The `culzss` crate's
//! CPU engine (`culzss::hetero`) drives them with the CULZSS Fixed16
//! configuration, which makes them also the service's CPU lane, its
//! verify-on-deliver decoder and the dedup CPU segment encoder.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::{assemble_with, stream_crc_of, Container, ContainerVersion};
use culzss_lzss::error::{Error, Result};
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::serial;

/// Number of worker threads matching the paper's testbed spirit: all
/// hardware threads of the host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Splits `input` into `threads` nearly equal chunks (the paper's
/// per-thread partitioning) and compresses them concurrently with the
/// paper's brute-force search into the default container version.
pub fn compress(input: &[u8], config: &LzssConfig, threads: usize) -> Result<Vec<u8>> {
    let threads = threads.max(1);
    let chunk_size = input.len().div_ceil(threads).max(1);
    compress_chunked(input, config, chunk_size, threads, FinderKind::BruteForce, Default::default())
}

/// Chunked compression with every setting explicit: `input` is cut into
/// `chunk_size`-byte pieces, `threads` workers compress static contiguous
/// ranges of them with `finder`, and the bodies are assembled into a
/// `version` container. Matches never cross chunk boundaries, exactly as
/// in the paper (each piece is independent), so the output does not
/// depend on `threads`. [`ContainerVersion::V1`] emits the checksum-free
/// legacy layout byte-for-byte.
pub fn compress_chunked(
    input: &[u8],
    config: &LzssConfig,
    chunk_size: usize,
    threads: usize,
    finder: FinderKind,
    version: ContainerVersion,
) -> Result<Vec<u8>> {
    config.validate()?;
    if chunk_size == 0 {
        return Err(Error::InvalidConfig { reason: "chunk_size must be positive".into() });
    }
    if chunk_size > u32::MAX as usize {
        return Err(Error::InvalidConfig { reason: "chunk_size must fit in u32".into() });
    }
    let bodies = compress_bodies(input, config, chunk_size, threads, finder);
    assemble_with(
        config,
        chunk_size as u32,
        input.len() as u64,
        stream_crc_of(input, chunk_size as u32),
        &bodies,
        version,
    )
}

/// The chunk-compress worker loop: cuts `input` into `chunk_size`-byte
/// pieces and returns each piece's compressed body, in order, with
/// `threads` workers owning static contiguous ranges of chunks. Callers
/// that assemble the container themselves (a heterogeneous split, a
/// dedup cache) use this directly; `config` must be valid and
/// `chunk_size` positive.
pub fn compress_bodies(
    input: &[u8],
    config: &LzssConfig,
    chunk_size: usize,
    threads: usize,
    finder: FinderKind,
) -> Vec<Vec<u8>> {
    let chunks: Vec<&[u8]> = input.chunks(chunk_size).collect();
    let mut bodies: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    if !chunks.is_empty() {
        let threads = threads.clamp(1, chunks.len());
        let per_worker = chunks.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (chunk_range, body_range) in
                chunks.chunks(per_worker).zip(bodies.chunks_mut(per_worker))
            {
                scope.spawn(move |_| {
                    // One tokenizer per worker: finder state and token
                    // buffer are recycled across the worker's chunk range.
                    let mut tokenizer = serial::Tokenizer::with_finder(config, finder);
                    for (chunk, body) in chunk_range.iter().zip(body_range.iter_mut()) {
                        tokenizer.compress_chunk_into(chunk, config, body);
                    }
                });
            }
        })
        .expect("compression worker panicked");
    }
    bodies
}

/// Decompresses a container stream whose token configuration must be
/// `config`, decoding chunks concurrently.
pub fn decompress(bytes: &[u8], config: &LzssConfig, threads: usize) -> Result<Vec<u8>> {
    config.validate()?;
    let (container, payload_offset) = Container::parse(bytes)?;
    container.check_config(config)?;
    decompress_parsed(&container, &bytes[payload_offset..], config, threads)
}

/// The chunk-decode worker loop over an already parsed `container` and
/// its `payload`, decoded with `config` (which the caller has matched to
/// the header): verifies the chunk CRCs, decodes the chunks on `threads`
/// workers owning static contiguous ranges, then checks the total size
/// and the stream CRC.
pub fn decompress_parsed(
    container: &Container,
    payload: &[u8],
    config: &LzssConfig,
    threads: usize,
) -> Result<Vec<u8>> {
    container.verify_chunk_crcs(payload)?;
    let layout = container.chunk_layout();

    let mut pieces: Vec<Result<Vec<u8>>> = Vec::new();
    pieces.resize_with(layout.len(), || Ok(Vec::new()));
    if !layout.is_empty() {
        let threads = threads.clamp(1, layout.len());
        let per_worker = layout.len().div_ceil(threads);
        crossbeam::thread::scope(|scope| {
            for (jobs, outs) in layout.chunks(per_worker).zip(pieces.chunks_mut(per_worker)) {
                scope.spawn(move |_| {
                    for ((range, unc_len), out) in jobs.iter().zip(outs.iter_mut()) {
                        *out = serial::decode_body(&payload[range.clone()], config, *unc_len);
                    }
                });
            }
        })
        .expect("decompression worker panicked");
    }

    let mut out = Vec::with_capacity(container.total_len as usize);
    for piece in pieces {
        out.extend_from_slice(&piece?);
    }
    if out.len() as u64 != container.total_len {
        return Err(Error::SizeMismatch {
            expected: container.total_len as usize,
            actual: out.len(),
        });
    }
    container.verify_stream_crc(&out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ContainerVersion::V2;

    fn sample() -> Vec<u8> {
        b"a man a plan a canal panama ".repeat(300)
    }

    #[test]
    fn roundtrip_single_thread() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        let c = compress(&input, &config, 1).unwrap();
        assert_eq!(decompress(&c, &config, 1).unwrap(), input);
    }

    #[test]
    fn roundtrip_many_threads() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        for threads in [2, 3, 8, 64] {
            let c = compress(&input, &config, threads).unwrap();
            assert_eq!(decompress(&c, &config, threads).unwrap(), input, "threads={threads}");
        }
    }

    #[test]
    fn output_is_deterministic_across_thread_counts() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        // Same chunk size -> byte-identical output regardless of pool size.
        let a = compress_chunked(&input, &config, 1024, 1, FinderKind::BruteForce, V2).unwrap();
        let b = compress_chunked(&input, &config, 1024, 7, FinderKind::BruteForce, V2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_input() {
        let config = LzssConfig::dipperstein();
        let c = compress(b"", &config, 4).unwrap();
        assert_eq!(decompress(&c, &config, 4).unwrap(), b"");
    }

    #[test]
    fn input_smaller_than_thread_count() {
        let config = LzssConfig::dipperstein();
        let input = b"tiny";
        let c = compress(input, &config, 16).unwrap();
        assert_eq!(decompress(&c, &config, 16).unwrap(), input);
    }

    #[test]
    fn chunking_reduces_ratio_only_slightly() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        let whole = serial::compress(&input, &config).unwrap().len();
        let chunked =
            compress_chunked(&input, &config, 2048, 4, FinderKind::BruteForce, V2).unwrap().len();
        // Chunked is worse (no cross-chunk matches + size table) but stays
        // in the same band — the effect the paper reports in Table II.
        assert!(chunked >= whole);
        assert!((chunked as f64) < (whole as f64) * 1.6, "{chunked} vs {whole}");
    }

    #[test]
    fn zero_chunk_size_is_rejected() {
        let config = LzssConfig::dipperstein();
        assert!(compress_chunked(b"abc", &config, 0, 2, FinderKind::BruteForce, V2).is_err());
    }

    #[test]
    fn cross_config_decode_is_rejected() {
        let input = sample();
        let c = compress(&input, &LzssConfig::dipperstein(), 2).unwrap();
        assert!(decompress(&c, &LzssConfig::culzss_v1(), 2).is_err());
    }

    #[test]
    fn truncated_container_is_rejected() {
        let config = LzssConfig::dipperstein();
        let c = compress(&sample(), &config, 2).unwrap();
        assert!(decompress(&c[..c.len() - 1], &config, 2).is_err());
    }

    #[test]
    fn both_container_versions_roundtrip_and_v2_detects_flips() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        for version in [ContainerVersion::V1, ContainerVersion::V2] {
            let c = compress_chunked(&input, &config, 2048, 4, FinderKind::BruteForce, version)
                .unwrap();
            assert_eq!(decompress(&c, &config, 4).unwrap(), input, "{version:?}");
        }
        // Default emission carries CRCs: a payload flip is a typed error.
        let mut c = compress_chunked(&input, &config, 2048, 4, FinderKind::BruteForce, V2).unwrap();
        let at = c.len() - 10;
        c[at] ^= 0x04;
        assert!(matches!(
            decompress(&c, &config, 4).unwrap_err(),
            Error::Corrupt { .. } | Error::HeaderCorrupt { .. }
        ));
    }

    #[test]
    fn hash_chain_variant_roundtrips() {
        let config = LzssConfig::dipperstein();
        let input = sample();
        let c = compress_chunked(&input, &config, 2048, 4, FinderKind::HashChain, V2).unwrap();
        assert_eq!(decompress(&c, &config, 4).unwrap(), input);
    }
}
