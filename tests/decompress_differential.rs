//! Differential tests for the decompression engines, driven by the
//! paper's five evaluation corpora ([`Dataset::ALL`]).
//!
//! The anchor property mirrors `tests/differential.rs` on the decode
//! side: the warp-parallel two-pass decoder, the serial block decoder,
//! and the CPU reference ([`hetero::cpu_decompress`]) must restore the
//! **same bytes** from every stream any encoder produces — container
//! v1 and v2, from the V1 and V2 GPU kernels and the CPU reference
//! encoder — across every corpus and the chunk-boundary edge sizes
//! (empty, one byte, exactly one chunk, one chunk plus one byte).
//! Streams the GPU decoders cannot serve (the pthread wrapper's
//! flag-bit token format) must be rejected by both engines with the
//! same typed error, never wrong bytes.
//!
//! The final test runs both decode engines under the gpusim shared
//! memory sanitizer on all five corpora, mirroring the compression
//! kernels' `run_checked` coverage.

use culzss::hetero;
use culzss::{Culzss, CulzssError, CulzssParams, DecodeEngine, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::{DeviceSpec, GpuSim};
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::ContainerVersion;
use culzss_lzss::Error as LzssError;

const SAMPLE_BYTES: usize = 24 * 1024; // six 4 KB chunks
const SEED: u64 = 2011;

fn corpora() -> Vec<(&'static str, Vec<u8>)> {
    Dataset::ALL.iter().map(|d| (d.slug(), d.generate(SAMPLE_BYTES, SEED))).collect()
}

/// A pipeline with an explicit container version knob, as in
/// `tests/golden.rs`.
fn culzss_versioned(version: Version, container: ContainerVersion) -> Culzss {
    let mut params = CulzssParams::for_version(version);
    params.container_version = container;
    Culzss::with_device(DeviceSpec::gtx480(), params).with_workers(2)
}

/// Every encoder whose streams the GPU decoders must serve: both kernel
/// versions in both container generations, plus the CPU reference
/// encoder (whose container is byte-identical to the V1 kernel's).
#[allow(clippy::type_complexity)]
fn encoders() -> Vec<(&'static str, Box<dyn Fn(&[u8]) -> Vec<u8>>)> {
    vec![
        (
            "culzss-v1",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V1).with_workers(2).compress(input).unwrap().0
            }) as Box<dyn Fn(&[u8]) -> Vec<u8>>,
        ),
        (
            "culzss-v2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V2).with_workers(2).compress(input).unwrap().0
            }),
        ),
        (
            "culzss-v1.c1",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V1, ContainerVersion::V1).compress(input).unwrap().0
            }),
        ),
        (
            "culzss-v2.c1",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V2, ContainerVersion::V1).compress(input).unwrap().0
            }),
        ),
        (
            "cpu",
            Box::new(|input: &[u8]| hetero::cpu_compress(input, &CulzssParams::v1(), 2).unwrap()),
        ),
    ]
}

/// Decode `stream` with the serial engine, the warp engine, and the CPU
/// reference decoder; assert all three restore `expect` byte for byte.
fn assert_all_decoders_agree(label: &str, stream: &[u8], expect: &[u8]) {
    let serial = Culzss::new(Version::V1)
        .with_decode_engine(DecodeEngine::Serial)
        .decompress_auto(stream)
        .unwrap_or_else(|e| panic!("[{label}] serial decode failed: {e}"))
        .0;
    let warp = Culzss::new(Version::V1)
        .with_decode_engine(DecodeEngine::WarpParallel)
        .decompress_auto(stream)
        .unwrap_or_else(|e| panic!("[{label}] warp decode failed: {e}"))
        .0;
    let cpu = hetero::cpu_decompress(stream, 2)
        .unwrap_or_else(|e| panic!("[{label}] cpu decode failed: {e}"));
    assert_eq!(serial, expect, "[{label}] serial decoder diverges from the input");
    assert_eq!(warp, serial, "[{label}] warp decoder diverges from the serial decoder");
    assert_eq!(cpu, serial, "[{label}] cpu decoder diverges from the serial decoder");
}

/// Warp ≡ serial ≡ CPU on every corpus, for streams from every encoder
/// in both container generations.
#[test]
fn all_decoders_agree_on_every_corpus_and_encoder() {
    for (slug, input) in corpora() {
        for (encoder, encode) in encoders() {
            let stream = encode(&input);
            assert_all_decoders_agree(&format!("{slug}/{encoder}"), &stream, &input);
        }
    }
}

/// The chunk-boundary edge sizes from `tests/differential.rs`, on the
/// decode side: empty, one byte, exactly one chunk, one chunk plus one.
#[test]
fn all_decoders_agree_on_chunk_boundary_edge_sizes() {
    let chunk = CulzssParams::v1().chunk_size;
    for len in [0usize, 1, chunk, chunk + 1] {
        let input = Dataset::CFiles.generate(len, SEED);
        assert_eq!(input.len(), len);
        for (encoder, encode) in encoders() {
            let stream = encode(&input);
            assert_all_decoders_agree(&format!("{len}B/{encoder}"), &stream, &input);
        }
    }
}

/// The pthread wrapper emits flag-bit token bodies the GPU decode
/// kernels do not implement: both engines must reject such streams with
/// the **same typed error** — and never return wrong bytes — while the
/// pthread decoder itself round-trips them. Every other decoder that
/// reads its configuration from the header (the CPU reference and
/// salvage) applies the same rule and rejects with the same
/// `InvalidContainer` reason.
#[test]
fn both_gpu_engines_reject_flag_bit_streams_identically() {
    let config = LzssConfig::dipperstein();
    for (slug, input) in corpora() {
        let stream = culzss_pthread::compress(&input, &config, 2).unwrap();
        assert_eq!(
            culzss_pthread::decompress(&stream, &config, 2).unwrap(),
            input,
            "[{slug}] pthread round-trip"
        );
        let serial_err = Culzss::new(Version::V1)
            .decompress_auto(&stream)
            .expect_err(&format!("[{slug}] serial engine accepted a flag-bit stream"));
        let warp_err = Culzss::new(Version::V1)
            .with_decode_engine(DecodeEngine::WarpParallel)
            .decompress_auto(&stream)
            .expect_err(&format!("[{slug}] warp engine accepted a flag-bit stream"));
        assert_eq!(
            serial_err.to_string(),
            warp_err.to_string(),
            "[{slug}] engines disagree on the rejection error"
        );
        let CulzssError::Codec(LzssError::InvalidContainer { reason }) = serial_err else {
            panic!("[{slug}] serial engine rejected with {serial_err:?}, not InvalidContainer");
        };
        let cpu_err = hetero::cpu_decompress(&stream, 2)
            .expect_err(&format!("[{slug}] cpu decoder accepted a flag-bit stream"));
        let salvage_err = culzss::salvage::salvage(&stream)
            .expect_err(&format!("[{slug}] salvage accepted a flag-bit stream"));
        assert_eq!(
            cpu_err,
            CulzssError::Codec(LzssError::InvalidContainer { reason: reason.clone() }),
            "[{slug}] cpu decoder disagrees on the rejection"
        );
        assert_eq!(
            salvage_err,
            LzssError::InvalidContainer { reason },
            "[{slug}] salvage disagrees on the rejection"
        );
    }
}

/// Decode-side mirror of the compression kernels' `run_checked`
/// coverage: both decode engines, over both kernel versions' streams,
/// run race- and divergence-free under the shared memory sanitizer on
/// all five corpora — and the sweep actually exercised shared memory.
#[test]
fn decode_engines_are_race_free_on_every_corpus() {
    let sim = GpuSim::new(DeviceSpec::gtx480()).with_workers(2);
    for (slug, input) in corpora() {
        let checks = culzss::sancheck::check_decode_all(&sim, &input).unwrap();
        assert_eq!(checks.len(), 6, "[{slug}] expected v1/v2/v3 × serial/warp");
        for check in &checks {
            assert!(
                check.is_clean(),
                "[{slug}] {:?} stream / {:?} decode is dirty: {:?}",
                check.version,
                check.engine,
                check.report
            );
            // Only the two-pass warp decoder stages through shared
            // memory; the serial block decoder streams global-to-global.
            if check.engine == DecodeEngine::WarpParallel {
                assert!(
                    check.report.checked_accesses > 0,
                    "[{slug}] warp decode swept no shared accesses"
                );
            }
        }
    }
}
