//! Integration tests for the extension features: batched streaming,
//! heterogeneous CPU+GPU compression, and the traffic mixer — all
//! composed across crates.

use std::io::Cursor;

use culzss::hetero::HeteroCompressor;
use culzss::stream::StreamingCompressor;
use culzss::{Culzss, Version};
use culzss_datasets::mixer::Mixer;
use culzss_datasets::Dataset;

#[test]
fn streaming_compressor_over_mixed_traffic() {
    let traffic = Mixer::datacenter().with_segment_bytes(8 * 1024).generate(400 * 1024, 31);
    let sc = StreamingCompressor::new(Culzss::new(Version::V2).with_workers(2))
        .with_batch_bytes(64 * 1024);
    let mut compressed = Vec::new();
    let report = sc.compress_stream(&mut Cursor::new(&traffic), &mut compressed).unwrap();
    assert_eq!(report.bytes_in, traffic.len() as u64);
    assert!(report.batches >= 6);
    assert!(report.overlap_speedup() >= 1.0);

    let mut restored = Vec::new();
    sc.decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
    assert_eq!(restored, traffic);
}

#[test]
fn hetero_streams_interoperate_with_every_decompressor() {
    let data = Dataset::KernelTarball.generate(128 * 1024, 33);
    let hetero = HeteroCompressor::new(Culzss::new(Version::V1).with_workers(2), 0.5, 2);
    let (stream, stats) = hetero.compress(&data).unwrap();
    assert!(stats.cpu_chunks > 0 && stats.gpu_chunks > 0);

    // GPU decompressor.
    let gpu = Culzss::new(Version::V1).with_workers(2);
    assert_eq!(gpu.decompress(&stream).unwrap().0, data);
    // Auto decompressor.
    assert_eq!(gpu.decompress_auto(&stream).unwrap().0, data);
    // CPU chunked decompressor (same container, same config).
    let config = gpu.params().lzss_config();
    assert_eq!(culzss_pthread::decompress(&stream, &config, 3).unwrap(), data);
}

#[test]
fn bzip2_streaming_io_on_generated_corpora() {
    for dataset in [Dataset::Dictionary, Dataset::HighlyCompressible] {
        let data = dataset.generate(200 * 1024, 39);
        let mut compressed = Vec::new();
        culzss_bzip2::io::compress_stream(
            &mut Cursor::new(&data),
            &mut compressed,
            64 * 1024,
            culzss_bzip2::bwt::Backend::SaIs,
        )
        .unwrap();
        let mut restored = Vec::new();
        culzss_bzip2::io::decompress_stream(&mut Cursor::new(&compressed), &mut restored).unwrap();
        assert_eq!(restored, data, "{}", dataset.slug());
    }
}
