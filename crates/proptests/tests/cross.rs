//! Cross-crate property tests: all five compressors are inverses on
//! arbitrary inputs, and the GPU implementations agree exactly with their
//! CPU reference algorithms.

use culzss::{Culzss, CulzssParams, Version};
use culzss_lzss::{serial, LzssConfig};
use proptest::prelude::*;

fn inputs() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..6000),
        proptest::collection::vec(prop_oneof![Just(b'x'), Just(b'y'), Just(b' ')], 0..6000),
        (proptest::collection::vec(any::<u8>(), 1..25), 1usize..300).prop_map(|(pat, reps)| pat
            .iter()
            .cycle()
            .take(pat.len() * reps)
            .copied()
            .collect()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn serial_roundtrip(data in inputs()) {
        let config = LzssConfig::dipperstein();
        let c = serial::compress(&data, &config).unwrap();
        prop_assert_eq!(serial::decompress(&c, &config).unwrap(), data);
    }

    #[test]
    fn pthread_roundtrip(data in inputs(), threads in 1usize..6) {
        let config = LzssConfig::dipperstein();
        let c = culzss_pthread::compress(&data, &config, threads).unwrap();
        prop_assert_eq!(culzss_pthread::decompress(&c, &config, threads).unwrap(), data);
    }

    #[test]
    fn bzip2_roundtrip(data in inputs()) {
        let c = culzss_bzip2::compress(&data).unwrap();
        prop_assert_eq!(culzss_bzip2::decompress(&c).unwrap(), data);
    }

    #[test]
    fn culzss_v1_roundtrip_and_reference(data in inputs()) {
        let culzss = Culzss::new(Version::V1).with_workers(1);
        let (stream, _) = culzss.compress(&data).unwrap();
        prop_assert_eq!(&culzss.decompress(&stream).unwrap().0, &data);

        // Exactly the per-chunk serial algorithm.
        let params = CulzssParams::v1();
        let config = params.lzss_config();
        let bodies: Vec<Vec<u8>> = data
            .chunks(params.chunk_size)
            .map(|c| culzss_lzss::format::encode(&serial::tokenize(c, &config), &config))
            .collect();
        let reference = culzss_lzss::container::assemble_with(
            &config,
            params.chunk_size as u32,
            data.len() as u64,
            culzss_lzss::container::stream_crc_of(&data, params.chunk_size as u32),
            &bodies,
            culzss_lzss::container::ContainerVersion::V2,
        )
        .unwrap();
        prop_assert_eq!(stream, reference);
    }

    #[test]
    fn culzss_v2_roundtrip_and_reference(data in inputs()) {
        let culzss = Culzss::new(Version::V2).with_workers(1);
        let (stream, _) = culzss.compress(&data).unwrap();
        prop_assert_eq!(&culzss.decompress(&stream).unwrap().0, &data);

        // V2's GPU-match + CPU-selection equals the greedy parse.
        let params = CulzssParams::v2();
        let config = params.lzss_config();
        let bodies: Vec<Vec<u8>> = data
            .chunks(params.chunk_size)
            .map(|c| culzss_lzss::format::encode(&serial::tokenize(c, &config), &config))
            .collect();
        let reference = culzss_lzss::container::assemble_with(
            &config,
            params.chunk_size as u32,
            data.len() as u64,
            culzss_lzss::container::stream_crc_of(&data, params.chunk_size as u32),
            &bodies,
            culzss_lzss::container::ContainerVersion::V2,
        )
        .unwrap();
        prop_assert_eq!(stream, reference);
    }

    #[test]
    fn compressors_never_panic_on_garbage_streams(
        garbage in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let config = LzssConfig::dipperstein();
        let _ = serial::decompress(&garbage, &config);
        let _ = culzss_pthread::decompress(&garbage, &config, 2);
        let _ = culzss_bzip2::decompress(&garbage);
        let _ = Culzss::new(Version::V1).with_workers(1).decompress(&garbage);
        let _ = Culzss::new(Version::V2).with_workers(1).decompress(&garbage);
    }
}
