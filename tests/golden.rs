//! Golden wire-format regression tests.
//!
//! `tests/golden/<engine>.bin` holds the compressed stream each engine
//! produced for one fixed, deterministic input
//! (`Dataset::CFiles.generate(8192, 2011)`). The tests pin the formats
//! in both directions:
//!
//! * **decode**: today's decoder must restore the checked-in stream to
//!   the fixture input (old streams stay readable);
//! * **encode**: today's encoder must reproduce the checked-in stream
//!   byte for byte (the wire format — header layout, token packing,
//!   size tables — has not drifted).
//!
//! Container engines are pinned twice: `<engine>.bin` holds the legacy
//! v1 (checksum-free) container, emitted through the explicit
//! [`ContainerVersion::V1`] knob, and `<engine>.c2.bin` holds the
//! checksummed container v2 stream the same engine emits by default.
//! Both generations must keep decoding, and both emitters must stay
//! byte-exact.
//!
//! `tests/golden/counters.txt` pins the simulator's modelled counters
//! the same way: every [`LaunchStats::counters`] value plus the modelled
//! `host_cycles` of V1/V2/V3 compression and of serial/warp decoding of
//! the fixture input, compared bit for bit (f64 bits). Host-side
//! speedups of the simulator must leave every one of them unchanged.
//!
//! An intentional format change must regenerate the fixtures — run
//! `cargo test --test golden -- --ignored regenerate` — and call out the
//! compatibility break in the change description. The same holds for an
//! intentional change to the cost model or a kernel's metering.

use std::path::PathBuf;

use culzss::{Culzss, CulzssParams, DecodeEngine, PipelineStats, Version};
use culzss_datasets::Dataset;
use culzss_gpusim::exec::LaunchStats;
use culzss_gpusim::DeviceSpec;
use culzss_lzss::config::LzssConfig;
use culzss_lzss::container::ContainerVersion;
use culzss_lzss::serial;

const INPUT_BYTES: usize = 8192;
const SEED: u64 = 2011;

fn fixture_input() -> Vec<u8> {
    Dataset::CFiles.generate(INPUT_BYTES, SEED)
}

fn fixture_path(engine: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{engine}.bin"))
}

fn counters_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.txt")
}

fn read_fixture(engine: &str) -> Vec<u8> {
    let path = fixture_path(engine);
    std::fs::read(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} — regenerate with the ignored test: {e}", path.display())
    })
}

/// A [`Culzss`] engine pinned to an explicit container version.
fn culzss_versioned(version: Version, container: ContainerVersion) -> Culzss {
    let mut params = CulzssParams::for_version(version);
    params.container_version = container;
    Culzss::with_device(DeviceSpec::gtx480(), params).with_workers(2)
}

/// The pthread wrapper's default chunking, with an explicit container
/// version.
fn pthread_versioned(input: &[u8], container: ContainerVersion) -> Vec<u8> {
    let chunk_size = input.len().div_ceil(3).max(1);
    culzss_pthread::compress_chunked(
        input,
        &LzssConfig::dipperstein(),
        chunk_size,
        3,
        culzss_lzss::matchfind::FinderKind::BruteForce,
        container,
    )
    .unwrap()
}

/// `(engine name, encode, decode)` for every wire format in the repo.
/// `<engine>.c2` variants emit the checksummed container v2 through the
/// same codec defaults tenants get.
#[allow(clippy::type_complexity)]
fn engines() -> Vec<(&'static str, Box<dyn Fn(&[u8]) -> Vec<u8>>, Box<dyn Fn(&[u8]) -> Vec<u8>>)> {
    let config = LzssConfig::dipperstein();
    let decode_config = config.clone();
    let culzss_decode = |version: Version| {
        Box::new(move |bytes: &[u8]| {
            Culzss::new(version).with_workers(2).decompress(bytes).unwrap().0
        }) as Box<dyn Fn(&[u8]) -> Vec<u8>>
    };
    let pthread_decode = || {
        Box::new(|bytes: &[u8]| {
            culzss_pthread::decompress(bytes, &LzssConfig::dipperstein(), 3).unwrap()
        }) as Box<dyn Fn(&[u8]) -> Vec<u8>>
    };
    vec![
        (
            "v1",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V1, ContainerVersion::V1).compress(input).unwrap().0
            }) as Box<dyn Fn(&[u8]) -> Vec<u8>>,
            culzss_decode(Version::V1),
        ),
        (
            "v1.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V1).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V1),
        ),
        (
            "v2",
            Box::new(|input: &[u8]| {
                culzss_versioned(Version::V2, ContainerVersion::V1).compress(input).unwrap().0
            }),
            culzss_decode(Version::V2),
        ),
        (
            "v2.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V2).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V2),
        ),
        // V3 only emits container v2 (it post-dates the checksummed
        // container); its fixture is byte-identical to v2.c2 by the V3
        // byte-compat guarantee, and pinning it separately means a V3
        // kernel regression cannot hide behind the V2 fixture.
        (
            "v3.c2",
            Box::new(|input: &[u8]| {
                Culzss::new(Version::V3).with_workers(2).compress(input).unwrap().0
            }),
            culzss_decode(Version::V3),
        ),
        (
            "lzss",
            Box::new(move |input: &[u8]| serial::compress(input, &config).unwrap()),
            Box::new(move |bytes: &[u8]| serial::decompress(bytes, &decode_config).unwrap()),
        ),
        (
            "pthread",
            Box::new(|input: &[u8]| pthread_versioned(input, ContainerVersion::V1)),
            pthread_decode(),
        ),
        (
            "pthread.c2",
            Box::new(|input: &[u8]| {
                culzss_pthread::compress(input, &LzssConfig::dipperstein(), 3).unwrap()
            }),
            pthread_decode(),
        ),
        (
            "bzip2",
            Box::new(|input: &[u8]| culzss_bzip2::compress(input).unwrap()),
            Box::new(|bytes: &[u8]| culzss_bzip2::decompress(bytes).unwrap()),
        ),
    ]
}

#[test]
fn golden_streams_decode_to_the_fixture_input() {
    let input = fixture_input();
    for (engine, _, decode) in engines() {
        let stream = read_fixture(engine);
        assert_eq!(decode(&stream), input, "[{engine}] golden stream no longer decodes");
    }
}

#[test]
fn encoders_reproduce_the_golden_streams() {
    let input = fixture_input();
    for (engine, encode, _) in engines() {
        let golden = read_fixture(engine);
        let fresh = encode(&input);
        assert_eq!(
            fresh,
            golden,
            "[{engine}] wire format drifted from tests/golden/{engine}.bin \
             (fresh {} bytes vs golden {} bytes); if intentional, regenerate the fixture",
            fresh.len(),
            golden.len()
        );
    }
}

/// Every golden fixture, through **both** GPU decode engines: the
/// CULZSS container fixtures must decode to identical bytes (the
/// fixture input) under the serial and the warp-parallel decoder, and
/// the fixtures in foreign wire formats (raw LZSS, pthread flag-bit
/// bodies, bzip2) must draw the **same typed rejection** from both.
#[test]
fn golden_streams_decode_identically_through_both_decode_engines() {
    let input = fixture_input();
    let serial = Culzss::new(Version::V1).with_workers(2);
    let warp =
        Culzss::new(Version::V1).with_workers(2).with_decode_engine(DecodeEngine::WarpParallel);
    let culzss_fixtures = ["v1", "v1.c2", "v2", "v2.c2", "v3.c2"];
    for (engine, _, _) in engines() {
        let stream = read_fixture(engine);
        let s = serial.decompress_auto(&stream);
        let w = warp.decompress_auto(&stream);
        if culzss_fixtures.contains(&engine) {
            let s = s.unwrap_or_else(|e| panic!("[{engine}] serial decode failed: {e}")).0;
            let w = w.unwrap_or_else(|e| panic!("[{engine}] warp decode failed: {e}")).0;
            assert_eq!(s, input, "[{engine}] serial decode diverges from the fixture input");
            assert_eq!(w, s, "[{engine}] warp decode diverges from the serial decode");
        } else {
            let se = s.expect_err(&format!("[{engine}] serial engine accepted a foreign format"));
            let we = w.expect_err(&format!("[{engine}] warp engine accepted a foreign format"));
            assert_eq!(
                se.to_string(),
                we.to_string(),
                "[{engine}] engines disagree on the rejection error"
            );
        }
    }
}

/// One line per modelled counter: `<run> <counter> <f64 bits> <value>`.
/// The bits column is what the comparison pins; the decimal value is
/// there for a human reading a diff.
fn counter_lines(run: &str, stats: &PipelineStats, out: &mut String) {
    let launch: &LaunchStats = stats.launch.as_ref().expect("GPU run without launch stats");
    let mut counters = launch.counters();
    counters.push(("host_cycles", stats.host_cycles));
    for (name, value) in counters {
        out.push_str(&format!("{run} {name} {:#018x} {value:?}\n", value.to_bits()));
    }
}

/// The modelled counters of every GPU engine on the fixture input:
/// V1/V2/V3 compression, then serial and warp decoding of the V1 and V2
/// streams (V3's stream is V2's, byte for byte).
fn counters_snapshot() -> String {
    let input = fixture_input();
    let mut out = String::new();
    let mut streams = Vec::new();
    for (name, version) in [("v1", Version::V1), ("v2", Version::V2), ("v3", Version::V3)] {
        let (stream, stats) = Culzss::new(version).with_workers(2).compress(&input).unwrap();
        counter_lines(&format!("{name}.compress"), &stats, &mut out);
        streams.push((name, version, stream));
    }
    for (name, version, stream) in &streams[..2] {
        for engine in [DecodeEngine::Serial, DecodeEngine::WarpParallel] {
            let codec = Culzss::new(*version).with_workers(2).with_decode_engine(engine);
            let (restored, stats) = codec.decompress(stream).unwrap();
            assert_eq!(restored, input, "[{name}] {} decode diverged", engine.name());
            counter_lines(&format!("{name}.decode_{}", engine.name()), &stats, &mut out);
        }
    }
    out
}

#[test]
fn modelled_counters_match_the_pinned_fixture() {
    let path = counters_path();
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing counter fixture {} — regenerate with the ignored test: {e}", path.display())
    });
    let fresh = counters_snapshot();
    for (line, (want, got)) in golden.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(got, want, "modelled counter drifted (line {})", line + 1);
    }
    assert_eq!(fresh.lines().count(), golden.lines().count(), "counter set changed");
}

/// Rewrites every fixture from the current encoders. Ignored by default;
/// run explicitly after an intentional format change:
/// `cargo test --test golden -- --ignored regenerate`.
#[test]
#[ignore = "rewrites the golden fixtures; run only after an intentional format change"]
fn regenerate_golden_fixtures() {
    let input = fixture_input();
    std::fs::create_dir_all(fixture_path("v1").parent().unwrap()).unwrap();
    for (engine, encode, decode) in engines() {
        let stream = encode(&input);
        assert_eq!(decode(&stream), input, "[{engine}] refusing to write a broken fixture");
        std::fs::write(fixture_path(engine), &stream).unwrap();
    }
    std::fs::write(counters_path(), counters_snapshot()).unwrap();
}
