//! Drive a `net_serve` listener over real TCP — the client half of the
//! e2e CI job. Each mode exercises one acceptance property and exits
//! non-zero on any violation, so a shell driver can just check status.
//!
//! ```text
//! cargo run --release --example net_client -- ADDR MODE
//!
//! MODE:
//!   verify     train the same seed-42 model locally; forward + classify
//!              every format over the wire and demand bit-identity with
//!              in-process forward_bits / infer
//!   load N     N pipelined classify requests, mixed formats, a tight
//!              deadline on every 5th; prints a status tally
//!   deadline   queue a backlog, then a 1 ms-deadline request behind it;
//!              demand the DeadlineExceeded wire status
//!   malformed  send a garbage opcode and a truncated frame; demand the
//!              ProtocolError verdict and connection close
//!   scrape     print the /metrics exposition body
//!   shutdown   request a graceful drain; demand the ShutdownOk ack
//! ```

use deep_positron::train::{train, TrainConfig};
use deep_positron::{Mlp, NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_net::{scrape_metrics, NetClient, ResponseBody, WireStatus};
use dp_posit::PositFormat;
use std::io::{Read, Write};
use std::net::TcpStream;

fn formats() -> [NumericFormat; 3] {
    [
        NumericFormat::Posit(PositFormat::new(8, 0).unwrap()),
        NumericFormat::Float(FloatFormat::new(4, 3).unwrap()),
        NumericFormat::Fixed(FixedFormat::new(8, 6).unwrap()),
    ]
}

/// The same deterministic model `net_serve` trains (seed 42 throughout).
fn trained_iris() -> (Mlp, dp_datasets::TrainTest) {
    let split = dp_datasets::iris::load(42).split(50, 42).normalized();
    let mut mlp = Mlp::new(&[4, 16, 3], 42);
    train(
        &mut mlp,
        &split.train,
        TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 0.01,
            seed: 42,
        },
    );
    (mlp, split)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let addr = args.next().expect("usage: net_client ADDR MODE [N]");
    let mode = args.next().expect("usage: net_client ADDR MODE [N]");
    match mode.as_str() {
        "verify" => verify(&addr),
        "load" => {
            let n: usize = args.next().map_or(50, |s| s.parse().expect("load count"));
            load(&addr, n);
        }
        "deadline" => deadline(&addr),
        "malformed" => malformed(&addr),
        "scrape" => {
            print!("{}", scrape_metrics(&addr).expect("scrape /metrics"));
        }
        "shutdown" => shutdown(&addr),
        other => panic!("unknown mode {other}"),
    }
}

fn verify(addr: &str) {
    let (mlp, split) = trained_iris();
    let mut client = NetClient::connect(addr).expect("connect");
    let xs: Vec<Vec<f32>> = split.test.features.iter().take(10).cloned().collect();
    for fmt in formats() {
        let q = QuantizedMlp::quantize(&mlp, fmt);
        let fmt_s = fmt.to_string();

        let wire = client
            .forward("iris", &fmt_s, 0, xs.clone())
            .expect("forward io");
        let local: Vec<Vec<u32>> = xs.iter().map(|x| q.forward_bits(x)).collect();
        assert_eq!(
            wire.body,
            ResponseBody::ForwardOk(local),
            "forward bits diverge for {fmt_s}"
        );

        let wire = client
            .classify("iris", &fmt_s, 0, xs.clone())
            .expect("classify io");
        let local: Vec<u32> = xs.iter().map(|x| q.infer(x) as u32).collect();
        assert_eq!(
            wire.body,
            ResponseBody::ClassifyOk(local),
            "classes diverge for {fmt_s}"
        );
        println!("verify {fmt_s}: bit-identical over the wire");
    }
    println!("VERIFY OK");
}

fn load(addr: &str, n: usize) {
    let (_, split) = trained_iris();
    let mut client = NetClient::connect(addr).expect("connect");
    let fmts: Vec<String> = formats().iter().map(|f| f.to_string()).collect();
    let xs: Vec<Vec<f32>> = split.test.features.iter().take(8).cloned().collect();
    let mut sent = Vec::new();
    let mut tally: std::collections::BTreeMap<&'static str, usize> = Default::default();
    for i in 0..n {
        // Every 5th request carries a 1 ms deadline: under concurrent
        // load some expire, and the e2e conservation check absorbs both
        // outcomes.
        let deadline_ms = if i % 5 == 4 { 1 } else { 0 };
        let req = client.classify_request("iris", &fmts[i % fmts.len()], deadline_ms, xs.clone());
        client.send(&req).expect("send");
        sent.push(req);
        // Stay inside the default per-connection inflight window.
        if sent.len() == 8 {
            for req in sent.drain(..) {
                let resp = client.recv().expect("recv");
                assert_eq!(resp.id, req.id());
                *tally.entry(resp.status().as_str()).or_default() += 1;
            }
        }
    }
    for req in sent.drain(..) {
        let resp = client.recv().expect("recv");
        assert_eq!(resp.id, req.id());
        *tally.entry(resp.status().as_str()).or_default() += 1;
    }
    let line: Vec<String> = tally.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("LOAD {}", line.join(" "));
    let total: usize = tally.values().sum();
    assert_eq!(total, n, "every request must get a typed verdict");
}

fn deadline(addr: &str) {
    let (_, split) = trained_iris();
    let mut client = NetClient::connect(addr).expect("connect");
    let fmt = formats()[0].to_string();
    // A backlog of fat no-deadline requests, then a 1 ms-deadline straggler
    // pipelined behind them: its queue wait is the backlog's service time,
    // so the popping worker must expire it (never serve it late).
    let fat: Vec<Vec<f32>> = split
        .test
        .features
        .iter()
        .cycle()
        .take(2000)
        .cloned()
        .collect();
    let backlog: Vec<_> = (0..6)
        .map(|_| client.classify_request("iris", &fmt, 0, fat.clone()))
        .collect();
    for req in &backlog {
        client.send(req).expect("send backlog");
    }
    let doomed = client.classify_request("iris", &fmt, 1, split.test.features.clone());
    client.send(&doomed).expect("send doomed");
    for req in &backlog {
        let resp = client.recv().expect("recv backlog");
        assert_eq!(resp.id, req.id());
        assert_eq!(resp.status(), WireStatus::Ok);
    }
    let resp = client.recv().expect("recv doomed");
    assert_eq!(resp.id, doomed.id());
    assert_eq!(
        resp.status(),
        WireStatus::DeadlineExceeded,
        "expected the straggler to expire, got {:?}",
        resp.body
    );
    println!("DEADLINE status={}", resp.status());
}

fn malformed(addr: &str) {
    // Garbage opcode: the server must answer ProtocolError, then close.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    let payload = [0x77u8, 0, 0, 0, 0, 0, 0, 0, 0];
    raw.write_all(&(payload.len() as u32).to_le_bytes())
        .expect("write len");
    raw.write_all(&payload).expect("write payload");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read verdict");
    assert!(reply.len() > 4, "no protocol-error reply");
    assert_eq!(
        reply[4],
        WireStatus::ProtocolError as u8,
        "expected protocol_error status byte"
    );

    // Truncated frame: claim 64 bytes, send 8, hang up. No reply to
    // read; the server's protocol_errors counter absorbs it.
    let mut raw = TcpStream::connect(addr).expect("connect raw");
    raw.write_all(&64u32.to_le_bytes()).expect("write len");
    raw.write_all(&[0u8; 8]).expect("write partial");
    drop(raw);
    println!("MALFORMED OK");
}

fn shutdown(addr: &str) {
    let mut client = NetClient::connect(addr).expect("connect");
    let ack = client.shutdown_server().expect("shutdown io");
    assert_eq!(ack.body, ResponseBody::ShutdownOk, "drain not acknowledged");
    println!("SHUTDOWN ACK");
}
