//! Cross-crate integration tests: every implementation on every dataset,
//! plus wire-format interoperability between the CPU and GPU codecs.

use culzss::{Culzss, CulzssParams, Version};
use culzss_datasets::Dataset;
use culzss_lzss::container::ContainerVersion;
use culzss_lzss::matchfind::FinderKind;
use culzss_lzss::{serial, LzssConfig};

const SIZE: usize = 96 * 1024;
const SEED: u64 = 0xE2E;

#[test]
fn serial_roundtrips_every_dataset() {
    let config = LzssConfig::dipperstein();
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = serial::compress(&data, &config).unwrap();
        assert_eq!(serial::decompress(&compressed, &config).unwrap(), data, "{}", dataset.slug());
        assert!(compressed.len() < data.len(), "{} did not compress", dataset.slug());
    }
}

#[test]
fn pthread_roundtrips_every_dataset() {
    let config = LzssConfig::dipperstein();
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = culzss_pthread::compress(&data, &config, 4).unwrap();
        assert_eq!(
            culzss_pthread::decompress(&compressed, &config, 4).unwrap(),
            data,
            "{}",
            dataset.slug()
        );
    }
}

#[test]
fn bzip2_roundtrips_every_dataset() {
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let compressed = culzss_bzip2::compress(&data).unwrap();
        assert_eq!(culzss_bzip2::decompress(&compressed).unwrap(), data, "{}", dataset.slug());
    }
}

#[test]
fn culzss_v1_roundtrips_every_dataset() {
    let culzss = Culzss::new(Version::V1).with_workers(2);
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let (compressed, _) = culzss.compress(&data).unwrap();
        assert_eq!(culzss.decompress(&compressed).unwrap().0, data, "{}", dataset.slug());
    }
}

#[test]
fn culzss_v2_roundtrips_every_dataset() {
    let culzss = Culzss::new(Version::V2).with_workers(2);
    for dataset in Dataset::ALL {
        let data = dataset.generate(SIZE, SEED);
        let (compressed, _) = culzss.compress(&data).unwrap();
        assert_eq!(culzss.decompress(&compressed).unwrap().0, data, "{}", dataset.slug());
    }
}

#[test]
fn pthread_and_gpu_containers_are_wire_compatible() {
    // The container format is shared: a stream produced by the CPU
    // threaded compressor (with the GPU token configuration and chunk
    // size) decompresses on the simulated GPU, and vice versa.
    let params = CulzssParams::v1();
    let config = params.lzss_config();
    let data = Dataset::CFiles.generate(SIZE, SEED);

    let cpu_stream = culzss_pthread::compress_chunked(
        &data,
        &config,
        params.chunk_size,
        4,
        FinderKind::BruteForce,
        ContainerVersion::default(),
    )
    .unwrap();
    let gpu = Culzss::new(Version::V1).with_workers(2);
    let (gpu_restored, _) = gpu.decompress(&cpu_stream).unwrap();
    assert_eq!(gpu_restored, data);

    let (gpu_stream, _) = gpu.compress(&data).unwrap();
    let cpu_restored = culzss_pthread::decompress(&gpu_stream, &config, 4).unwrap();
    assert_eq!(cpu_restored, data);

    // Same inputs, same algorithm, same format ⇒ identical bytes.
    assert_eq!(cpu_stream, gpu_stream);
}

#[test]
fn v1_output_equals_per_chunk_serial_compression() {
    // V1 is "the serial algorithm per 4 KB chunk" — byte-for-byte.
    let params = CulzssParams::v1();
    let config = params.lzss_config();
    let data = Dataset::KernelTarball.generate(SIZE, SEED);
    let gpu = Culzss::new(Version::V1).with_workers(2);
    let (gpu_stream, _) = gpu.compress(&data).unwrap();

    let bodies: Vec<Vec<u8>> = data
        .chunks(params.chunk_size)
        .map(|chunk| culzss_lzss::format::encode(&serial::tokenize(chunk, &config), &config))
        .collect();
    let reference = culzss_lzss::container::assemble_with(
        &config,
        params.chunk_size as u32,
        data.len() as u64,
        culzss_lzss::container::stream_crc_of(&data, params.chunk_size as u32),
        &bodies,
        ContainerVersion::V2,
    )
    .unwrap();
    assert_eq!(gpu_stream, reference);
}
