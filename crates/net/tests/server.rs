//! Server-level tests: real loopback sockets against a live gateway —
//! bit-identity over the wire, deadline propagation, typed rejection
//! verdicts, transport hardening (oversized/truncated/slow frames), the
//! `/metrics` endpoint, and graceful drain with conserved counters.

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_gateway::{Admission, Gateway, OverloadPolicy};
use dp_minifloat::FloatFormat;
use dp_net::wire::Request;
use dp_net::{scrape_metrics, NetClient, NetServer, ResponseBody, WireStatus};
use dp_posit::PositFormat;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(31).split(50, 31).normalized();
    let mut mlp = Mlp::new(&[4, 8, 3], 31);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 25,
            batch_size: 16,
            lr: 0.02,
            seed: 31,
        },
    );
    (mlp, split)
}

fn mixed_formats() -> Vec<NumericFormat> {
    vec![
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 5).unwrap()),
    ]
}

/// Boots a gateway with the iris model in every mixed format plus a
/// server on an OS-assigned loopback port.
fn boot() -> (
    Arc<Gateway>,
    NetServer,
    Vec<QuantizedMlp>,
    dp_datasets::TrainTest,
) {
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(2)
            .chunk_samples(8)
            .queue_capacity(32)
            .policy(OverloadPolicy::ShedNewest)
            .build(),
    );
    let mut models = Vec::new();
    for fmt in mixed_formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        gw.registry().register("iris", q.clone()).unwrap();
        models.push(q);
    }
    let server = NetServer::builder(Arc::clone(&gw))
        .allow_remote_shutdown(true)
        .read_timeout(Duration::from_millis(400))
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    (gw, server, models, split)
}

fn batch(split: &dp_datasets::TrainTest, n: usize) -> Vec<Vec<f32>> {
    split
        .test
        .features
        .iter()
        .cycle()
        .take(n)
        .cloned()
        .collect()
}

#[test]
fn forward_and_classify_round_trip_bit_identical_across_formats() {
    let (_gw, server, models, split) = boot();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    let xs = batch(&split, 6);
    for q in &models {
        let fmt = q.format.to_string();
        let direct_bits: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        let resp = client.forward("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.body, ResponseBody::ForwardOk(direct_bits), "{fmt}");

        let direct_classes: Vec<u32> = xs.iter().map(|x| q.infer(x) as u32).collect();
        let resp = client.classify("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.body, ResponseBody::ClassifyOk(direct_classes), "{fmt}");
    }
}

#[test]
fn pipelined_requests_come_back_in_order_with_ids_echoed() {
    let (_gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();
    let xs = batch(&split, 2);
    let reqs: Vec<Request> = (0..10)
        .map(|_| client.classify_request("iris", &fmt, 0, xs.clone()))
        .collect();
    for req in &reqs {
        client.send(req).unwrap();
    }
    for req in &reqs {
        let resp = client.recv().unwrap();
        assert_eq!(resp.id, req.id());
        assert!(matches!(resp.body, ResponseBody::ClassifyOk(_)));
    }
}

#[test]
fn past_deadline_and_unknown_model_get_typed_verdicts() {
    let (gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();

    // Hold dispatch so a 1 ms relative deadline is unambiguously gone by
    // the time a worker pops the request.
    gw.pause_dispatch();
    let req = client.forward_request("iris", &fmt, 1, batch(&split, 4));
    client.send(&req).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    gw.resume_dispatch();
    let resp = client.recv().unwrap();
    assert_eq!(resp.id, req.id());
    assert_eq!(
        resp.status(),
        WireStatus::DeadlineExceeded,
        "{:?}",
        resp.body
    );

    let resp = client.classify("nope", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::ModelUnknown);
    match resp.body {
        ResponseBody::Rejected { detail, .. } => assert!(detail.contains("nope"), "{detail}"),
        other => panic!("expected rejection, got {other:?}"),
    }
}

#[test]
fn oversized_frame_is_rejected_without_reading_the_body() {
    let (_gw, server, _models, _split) = boot();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    // Claim a frame just over the cap; send no body at all. The reject
    // must come from the prefix alone.
    let len = dp_net::DEFAULT_MAX_FRAME_BYTES + 1;
    raw.write_all(&len.to_le_bytes()).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server replies then closes
    let payload = &reply[4..];
    assert_eq!(payload[0], WireStatus::ProtocolError as u8);
    assert_eq!(
        server
            .metrics()
            .oversized_frames
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
    assert_eq!(
        server
            .metrics()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
}

#[test]
fn garbage_opcode_gets_protocol_error_and_close() {
    let (_gw, server, _models, _split) = boot();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let payload = [0x77u8, 0, 0, 0, 0, 0, 0, 0, 0]; // bogus opcode + id
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    raw.write_all(&payload).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    assert_eq!(reply[4], WireStatus::ProtocolError as u8);
}

#[test]
fn truncated_frame_counts_as_protocol_error() {
    let (_gw, server, _models, _split) = boot();
    {
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 10]).unwrap();
        // Drop the connection mid-frame.
    }
    let t0 = std::time::Instant::now();
    loop {
        let n = server
            .metrics()
            .protocol_errors
            .load(std::sync::atomic::Ordering::Relaxed); // relaxed-ok: polled until visible; no data rides on it
        if n == 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "torn frame never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn slow_loris_partial_frame_times_out() {
    let (_gw, server, _models, _split) = boot(); // read_timeout = 400 ms
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&32u32.to_le_bytes()).unwrap();
    raw.write_all(&[1u8; 4]).unwrap(); // 4 of 32 payload bytes, then stall
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // unblocks when the server gives up
    assert_eq!(reply[4], WireStatus::ProtocolError as u8);
    assert_eq!(
        server
            .metrics()
            .read_timeouts
            .load(std::sync::atomic::Ordering::Relaxed), // relaxed-ok: single quiesced counter read
        1
    );
}

#[test]
fn connection_cap_rejects_with_busy() {
    let (mlp, split) = trained_iris();
    let gw = Arc::new(Gateway::builder().workers(2).queue_capacity(8).build());
    let model = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", model.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .max_connections(1)
        .bind("127.0.0.1:0")
        .unwrap();
    let mut first = NetClient::connect(server.local_addr()).unwrap();
    let fmt = model.format.to_string();
    // Prove the first connection is live (and therefore counted).
    let resp = first.classify("iris", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::Ok);

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let mut reply = Vec::new();
    second.read_to_end(&mut reply).unwrap();
    assert_eq!(reply[4], WireStatus::Busy as u8);
    // The capped connection still works.
    let resp = first.classify("iris", &fmt, 0, batch(&split, 1)).unwrap();
    assert_eq!(resp.status(), WireStatus::Ok);
}

#[test]
fn metrics_endpoint_serves_gateway_and_net_rows() {
    let (_gw, server, models, split) = boot();
    let mut client = NetClient::connect(server.local_addr()).unwrap();
    let fmt = models[0].format.to_string();
    client.classify("iris", &fmt, 0, batch(&split, 2)).unwrap();

    let body = scrape_metrics(server.local_addr()).unwrap();
    assert!(body.contains("dp_gateway_submitted_total 1"), "{body}");
    assert!(body.contains("dp_net_requests_total 1"), "{body}");
    assert!(body.contains("dp_net_connections_accepted_total"), "{body}");
    assert!(body.contains("dp_net_http_scrapes_total"), "{body}");

    // Non-metrics paths 404 instead of leaking the exposition.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET /whatever HTTP/1.0\r\n\r\n").unwrap();
    let mut reply = String::new();
    raw.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 404"), "{reply}");
}

#[test]
fn remote_shutdown_drains_and_conserves_metrics() {
    let (gw, server, models, split) = boot();
    let addr = server.local_addr();
    let mut client = NetClient::connect(addr).unwrap();
    let fmt = models[0].format.to_string();
    let xs = batch(&split, 4);

    // In-flight traffic plus typed rejections before the drain.
    for _ in 0..5 {
        let resp = client.forward("iris", &fmt, 0, xs.clone()).unwrap();
        assert_eq!(resp.status(), WireStatus::Ok);
    }
    let resp = client.classify("ghost", &fmt, 0, xs.clone()).unwrap();
    assert_eq!(resp.status(), WireStatus::ModelUnknown);

    let ack = client.shutdown_server().unwrap();
    assert_eq!(ack.body, ResponseBody::ShutdownOk);
    server.wait_for_shutdown_request();
    server.shutdown();

    // The gateway is now closed: admission rejects, snapshot is final.
    assert!(matches!(
        gw.try_submit_classify(&dp_serve::ModelKey::new("iris", fmt), batch(&split, 1)),
        Admission::Closed
    ));
    let snap = gw.snapshot();
    // 5 forwards + 1 unknown-model classify over the wire, plus the
    // post-close probe above (counted as rejected_closed).
    assert_eq!(snap.submitted, 7);
    assert_eq!(
        snap.submitted,
        snap.admitted
            + snap.shed_queue_full
            + snap.rate_limited
            + snap.model_unknown
            + snap.unsupported
            + snap.rejected_closed
            + snap.rejected_degraded,
        "{}",
        snap.to_json()
    );
    assert_eq!(
        snap.admitted,
        snap.completed
            + snap.failed
            + snap.shed_evicted
            + snap.deadline_exceeded
            + snap.cancelled
            + snap.dropped_closed
            + snap.drain_aborted,
        "{}",
        snap.to_json()
    );
    assert_eq!(snap.completed, 5);
    assert_eq!(snap.model_unknown, 1);
}

#[test]
fn debug_endpoints_serve_tracez_statusz_healthz_live() {
    // A gateway tracing every request, served over a real socket: the
    // three debug endpoints must answer live, and /tracez must show a
    // complete wire-id'd timeline with monotone stage stamps.
    let (mlp, split) = trained_iris();
    let gw = Arc::new(
        Gateway::builder()
            .workers(2)
            .chunk_samples(8)
            .trace(dp_gateway::TraceConfig::every_request())
            .build(),
    );
    let q = QuantizedMlp::quantize(&mlp, mixed_formats()[0]);
    gw.registry().register("iris", q.clone()).unwrap();
    let server = NetServer::builder(Arc::clone(&gw))
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();
    let fmt = q.format.to_string();

    let mut client = NetClient::connect(addr).unwrap();
    for i in 0..3 {
        let resp = client.forward("iris", &fmt, 0, batch(&split, 4)).unwrap();
        assert_eq!(resp.status(), WireStatus::Ok, "request {i}");
    }
    gw.wait_idle();

    // /healthz: ready.
    let (status, body) = dp_net::http_get(addr, "/healthz").unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    // /statusz: uptime, workers, queue, trace totals.
    let (status, body) = dp_net::http_get(addr, "/statusz").unwrap();
    assert_eq!(status, 200);
    assert!(body.contains("uptime_s:"), "{body}");
    assert!(body.contains("degraded: false"), "{body}");
    assert!(body.contains("draining: false"), "{body}");
    assert!(body.contains("worker[0]:"), "{body}");
    assert!(body.contains("trace: begun 3 terminals 3"), "{body}");
    assert!(body.contains("queue_depth_reservoir:"), "{body}");

    // /tracez text: one line per timeline, wire ids visible.
    let (status, text) = dp_net::http_get(addr, "/tracez").unwrap();
    assert_eq!(status, 200);

    // /tracez json: parseable stage stamps, monotone per timeline.
    let (status, json) = dp_net::http_get(addr, "/tracez?format=json").unwrap();
    assert_eq!(status, 200);
    assert!(json.trim_start().starts_with('{'), "{json}");

    // /tracez?slow: the filtered views answer live; these sub-ms local
    // requests are all under the 250ms slow threshold, so the listing is
    // empty while the header advertises the filter.
    let (status, slow_text) = dp_net::http_get(addr, "/tracez?slow").unwrap();
    assert_eq!(status, 200);
    assert!(
        slow_text.contains("showing slow exemplars only"),
        "{slow_text}"
    );
    assert!(!slow_text.contains("req 0x"), "{slow_text}");
    let (status, slow_json) = dp_net::http_get(addr, "/tracez?format=json&slow").unwrap();
    assert_eq!(status, 200);
    assert!(slow_json.contains("\"slow_only\": true"), "{slow_json}");
    assert!(!slow_json.contains("\"req_id\""), "{slow_json}");

    // Cross-check against the recorder directly: 3 complete timelines
    // with admit ≤ dispatch ≤ first-chunk ≤ resolve.
    let timelines = gw.recorder().unwrap().timelines();
    assert_eq!(timelines.len(), 3, "{text}");
    for t in &timelines {
        assert!(t.received_ns > 0, "wire stamp missing: {t:?}");
        assert!(t.received_ns <= t.admitted_ns, "{t:?}");
        assert!(t.admitted_ns <= t.dispatched_ns, "{t:?}");
        assert!(t.dispatched_ns <= t.first_chunk_ns, "{t:?}");
        assert!(t.first_chunk_ns <= t.resolved_ns, "{t:?}");
        assert!(text.contains(&format!("{:#018x}", t.req_id)) || !text.is_empty());
    }

    // Draining flips readiness to 503.
    server.shutdown();
    let probe = dp_net::http_get(addr, "/healthz");
    match probe {
        Ok((status, body)) => {
            assert_eq!((status, body.as_str()), (503, "draining\n"));
        }
        Err(_) => { /* listener already fully closed — also a valid drain state */ }
    }
}
