//! Serving-stack smoke tests: the dynamic-batching service in
//! `tfe::serve` must be invisible to callers — every response is
//! bit-identical to a direct `FunctionalNetwork::run` on the same input,
//! no matter how requests were coalesced into micro-batches — while the
//! bounded queue rejects overload with a typed error and shutdown drains
//! everything already admitted.

use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use tfe::serve::demo::{demo_images, demo_network};
use tfe::serve::protocol::{read_frame, roundtrip, write_frame, WireRequest, WireResponse};
use tfe::serve::{Rejected, ServeConfig, Service, TcpServer};
use tfe::sim::batch::{run_batch, BatchOptions};
use tfe::sim::counters::Counters;
use tfe::sim::network::FunctionalNetwork;
use tfe::transfer::analysis::ReuseConfig;

/// Direct (unbatched, unserved) reference results for a set of images.
fn reference_outputs(
    net: &FunctionalNetwork,
    images: &[tfe::tensor::tensor::Tensor4<tfe::tensor::fixed::Fx16>],
) -> Vec<tfe::sim::network::NetworkOutput> {
    images
        .iter()
        .map(|image| net.run(image, ReuseConfig::FULL).expect("reference run"))
        .collect()
}

/// Concurrent TCP clients get bit-identical activations and counters,
/// and the stats endpoint sees every completion.
#[test]
fn tcp_concurrent_requests_are_bit_identical() {
    let net = demo_network(11);
    let images = demo_images(6, 0xbeef);
    let expected = Arc::new(reference_outputs(&net, &images));
    let images = Arc::new(images);

    let service = Service::start(net, ServeConfig::default()).unwrap();
    let server = TcpServer::bind("127.0.0.1:0", service.client()).unwrap();
    let addr = server.local_addr();

    let mut workers = Vec::new();
    for worker in 0..3 {
        let images = Arc::clone(&images);
        let expected = Arc::clone(&expected);
        workers.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            for round in 0..4 {
                let idx = (worker * 4 + round) % images.len();
                let request = WireRequest::Infer {
                    input: images[idx].clone(),
                    deadline_ms: None,
                    model_id: None,
                };
                match roundtrip(&mut stream, &request).expect("roundtrip") {
                    WireResponse::Ok {
                        activations,
                        counters,
                        ..
                    } => {
                        assert_eq!(activations, expected[idx].activations);
                        assert_eq!(counters, expected[idx].counters);
                    }
                    other => panic!("expected Ok, got {other:?}"),
                }
            }
        }));
    }
    for worker in workers {
        worker.join().expect("tcp worker");
    }

    // The same connection path also serves metrics and per-layer
    // telemetry: one entry per compiled stage, each exercised by every
    // request, with per-layer counters summing to the network total.
    let mut stream = TcpStream::connect(addr).expect("connect for stats");
    match roundtrip(&mut stream, &WireRequest::Stats).expect("stats roundtrip") {
        WireResponse::Stats {
            metrics,
            telemetry,
            models,
        } => {
            assert_eq!(metrics.completed, 12);
            assert_eq!(metrics.rejected, 0);
            assert!(metrics.batches >= 1);
            assert_eq!(models, None, "single-model endpoints report no fleet rows");

            assert_eq!(
                telemetry.layers.len(),
                2,
                "demo network compiles to two stages"
            );
            let mut layer_sum = Counters::default();
            for layer in &telemetry.layers {
                // Executors pack micro-batches into single batched runs:
                // one sample per stage per *run*, but every request's
                // image flows through every stage.
                assert_eq!(layer.images, 12, "every image runs every stage");
                assert!(
                    (1..=12).contains(&layer.runs),
                    "batched runs collapse at most 12 requests, got {}",
                    layer.runs
                );
                assert!(layer.counters.multiplies > 0);
                assert!(layer.p50_us <= layer.p95_us && layer.p95_us <= layer.max_us);
                layer_sum.merge(&layer.counters);
            }
            assert_eq!(layer_sum, telemetry.total);
        }
        other => panic!("expected Stats, got {other:?}"),
    }
    drop(stream);

    server.shutdown();
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 12);
    assert_eq!(snapshot.failed, 0);
}

/// A tiny queue with a slow drain (single executor, batch size 1) must
/// shed load with `Rejected::QueueFull`, and every accepted request must
/// still come back bit-identical.
#[test]
fn tiny_queue_rejects_overload_with_typed_error() {
    let net = demo_network(5);
    let images = demo_images(4, 0xcafe);
    let expected = reference_outputs(&net, &images);

    let service = Service::start(
        net,
        ServeConfig {
            queue_capacity: 2,
            max_batch_size: 1,
            executors: 1,
            max_batch_delay: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = service.client();

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for i in 0..64 {
        let idx = i % images.len();
        match client.submit(images[idx].clone()) {
            Ok(ticket) => accepted.push((idx, ticket)),
            Err(Rejected::QueueFull { capacity }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(other) => panic!("unexpected rejection: {other}"),
        }
    }
    assert!(
        rejected > 0,
        "64 tight-loop submissions into a 2-slot queue with one executor \
         must overflow at least once"
    );

    for (idx, ticket) in accepted {
        let reply = ticket.wait().expect("accepted requests complete");
        assert_eq!(reply.activations, expected[idx].activations);
        assert_eq!(reply.counters, expected[idx].counters);
    }

    let snapshot = service.shutdown();
    assert_eq!(snapshot.rejected, rejected);
    assert_eq!(snapshot.completed + snapshot.rejected, 64);
}

/// Already-expired deadlines are shed at batch formation without
/// touching the simulator; later healthy requests still run.
#[test]
fn expired_deadlines_are_dropped_before_execution() {
    let service = Service::start(
        demo_network(3),
        ServeConfig {
            max_batch_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = service.client();
    let images = demo_images(3, 0xd00d);

    let doomed: Vec<_> = images
        .iter()
        .map(|image| {
            client
                .submit_with_deadline(image.clone(), Some(Duration::ZERO))
                .expect("admission succeeds; expiry happens at batching")
        })
        .collect();
    for ticket in doomed {
        match ticket.wait() {
            Err(Rejected::DeadlineExceeded) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    let reply = client.infer(images[0].clone()).expect("healthy request");
    assert!(reply.counters.multiplies > 0);

    let snapshot = service.shutdown();
    assert_eq!(snapshot.expired, 3);
    assert_eq!(snapshot.completed, 1);
}

/// Shutdown drains in-flight work: everything admitted before the call
/// resolves `Ok`, and submissions after it are refused.
#[test]
fn shutdown_drains_admitted_requests() {
    let net = demo_network(9);
    let images = demo_images(6, 0xfeed);
    let expected = reference_outputs(&net, &images);

    let service = Service::start(
        net,
        ServeConfig {
            // A long flush delay: the requests sit in the batcher when
            // shutdown arrives, so the drain path is what completes them.
            max_batch_delay: Duration::from_millis(500),
            max_batch_size: 64,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let client = service.client();

    let tickets: Vec<_> = images
        .iter()
        .map(|image| client.submit(image.clone()).expect("submit"))
        .collect();

    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 6);
    assert_eq!(snapshot.failed, 0);

    for (idx, ticket) in tickets.into_iter().enumerate() {
        let reply = ticket.wait().expect("drained request completes");
        assert_eq!(reply.activations, expected[idx].activations);
        assert_eq!(reply.counters, expected[idx].counters);
    }

    match client.submit(images[0].clone()) {
        Err(Rejected::ShuttingDown) => {}
        other => panic!("expected ShuttingDown after shutdown, got {other:?}"),
    }
}

/// A geometry mismatch is rejected at admission (typed error) instead of
/// poisoning a whole micro-batch.
#[test]
fn wrong_geometry_is_rejected_at_admission() {
    let service = Service::start(demo_network(2), ServeConfig::default()).unwrap();
    let client = service.client();

    let bad = tfe::tensor::tensor::Tensor4::filled(
        [1, 5, 12, 12],
        tfe::tensor::fixed::Fx16::from_f32(0.25),
    );
    match client.submit(bad) {
        Err(Rejected::Failed(_)) => {}
        other => panic!("expected a typed sim error, got {other:?}"),
    }

    let snapshot = service.shutdown();
    assert_eq!(snapshot.failed, 1);
    assert_eq!(snapshot.completed, 0);
}

/// A frame nested far past the JSON parser's depth limit gets a typed
/// `Error` reply instead of overflowing the connection thread's stack,
/// and the same connection then serves a well-formed request
/// bit-identically.
#[test]
fn deeply_nested_frame_is_a_typed_error() {
    let net = demo_network(4);
    let images = demo_images(1, 0xdee9);
    let expected = reference_outputs(&net, &images);
    let service = Service::start(net, ServeConfig::default()).unwrap();
    let server = TcpServer::bind("127.0.0.1:0", service.client()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    write_frame(&mut stream, "[".repeat(100_000).as_bytes()).expect("send deep frame");
    let reply = read_frame(&mut stream)
        .expect("read reply")
        .expect("server answers instead of dropping the connection");
    match WireResponse::from_json(std::str::from_utf8(&reply).unwrap()).unwrap() {
        WireResponse::Error { message } => {
            assert!(message.contains("recursion limit"), "{message}");
        }
        other => panic!("expected Error, got {other:?}"),
    }

    let request = WireRequest::Infer {
        input: images[0].clone(),
        deadline_ms: None,
        model_id: None,
    };
    match roundtrip(&mut stream, &request).expect("roundtrip after the deep frame") {
        WireResponse::Ok {
            activations,
            counters,
            ..
        } => {
            assert_eq!(activations, expected[0].activations);
            assert_eq!(counters, expected[0].counters);
        }
        other => panic!("expected Ok, got {other:?}"),
    }
    drop(stream);
    server.shutdown();
    let snapshot = service.shutdown();
    assert_eq!(snapshot.completed, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any split of a request stream into micro-batches yields outputs
    /// and summed counters bit-identical to one-image-at-a-time
    /// execution — the invariant the whole serving stack rests on.
    #[test]
    fn any_microbatch_split_is_bit_identical(
        count in 1usize..9,
        splits in prop::collection::vec(1usize..5, 8),
        seed in 0u32..500,
    ) {
        let net = demo_network(seed);
        let images = demo_images(count, seed ^ 0x51ab);
        let expected = reference_outputs(&net, &images);

        let mut outputs = Vec::new();
        let mut merged = Counters::default();
        let mut start = 0;
        for (round, &size) in splits.iter().cycle().enumerate() {
            if start >= count {
                break;
            }
            prop_assert!(round < count, "splits of >=1 always advance");
            let stop = (start + size).min(count);
            let batch = run_batch(
                &net,
                &images[start..stop],
                ReuseConfig::FULL,
                BatchOptions::default(),
            )
            .expect("batched run");
            outputs.extend(batch.outputs);
            merged.merge(&batch.counters);
            start = stop;
        }

        prop_assert_eq!(outputs.len(), count);
        let mut expected_total = Counters::default();
        for (got, want) in outputs.iter().zip(&expected) {
            prop_assert_eq!(&got.activations, &want.activations);
            prop_assert_eq!(&got.counters, &want.counters);
            expected_total.merge(&want.counters);
        }
        prop_assert_eq!(merged, expected_total);
    }
}
