//! The per-layer pass: times each layer's public functions on the
//! workload's own shapes, and derives from the workload how often a
//! round (or a set-up) calls them.

use crate::metrics::{Report, TimedLayer, TIMED_LAYERS};
use crate::stats::{iqr, median, time_calls};
use crate::workloads::{Deployment, Inputs, Workload};
use crate::{reference, traced};
use deta_core::proxy::AttestationProxy;
use deta_core::shuffle::RoundPermutation;
use deta_core::transform::{TransformConfig, Transformer};
use deta_core::wire::Msg;
use deta_core::{AggKind, ModelMapper};
use deta_crypto::{DetRng, SigningKey};
use deta_nn::train::{evaluate, train_local};
use deta_sev_sim::{AmdRas, GuestImage, Platform};
use deta_socket::{encode_frame, FrameDecoder, SocketFrame};
use deta_transport::secure::{respond, HandshakeInitiator, SecureChannel};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Time budget of one layer's timing loop.
const BUDGET: Duration = Duration::from_millis(250);
/// Calls timed per layer at least.
const MIN_REPS: usize = 5;
/// Payload of a small frame: the size of a control message.
const SMALL_PAYLOAD: usize = 64;
/// Fragment frames per `socket.stream` batch.
const STREAM_BATCH: usize = 16;

/// Median per-call time of each timed layer.
struct Timing {
    name: &'static str,
    /// Median milliseconds per call.
    ms: f64,
    /// Bytes one call processes, for the MB/s layers.
    bytes: usize,
}

/// How often a round (or a set-up) of `w` calls each layer; `messages`
/// is the measured data-plane message count per round.
pub fn calls(w: &Workload, layer: &str, messages: f64) -> f64 {
    let (p, k) = (w.parties as f64, w.aggregators as f64);
    let tcp = w.deployment == Deployment::BridgedTcp;
    // Fragment messages per round: every party uploads k fragments and
    // downloads k aggregated ones.
    let fragments = 2.0 * p * k;
    // Every session-parts build attests k aggregators and draws one
    // mapper; over TCP each node rebuilds its own replica.
    let builds = if tcp { 1.0 + p + k } else { 1.0 };
    let on_tcp = |n: f64| if tcp { n } else { 0.0 };
    let uses = |kind: AggKind| if w.algorithm == kind { k } else { 0.0 };
    match layer {
        "nn.local_train_ms" => p,
        "nn.evaluate_ms" => 1.0,
        // Forward and inverse each derive one permutation per fragment.
        "shuffle.derive_ms" => 2.0 * p * k,
        "transform.forward_ms" | "transform.inverse_ms" => p,
        // Inner message plus the sealed-record wrapper.
        "wire.encode_mb_s" | "wire.decode_mb_s" => 2.0 * fragments,
        // The session channel, plus child→hub and hub→child links.
        "secure.seal_mb_s" | "secure.open_mb_s" => fragments * if tcp { 3.0 } else { 1.0 },
        "agg.median_ms" => uses(AggKind::CoordinateMedian),
        "agg.avg_ms" => uses(AggKind::IterativeAveraging),
        // Each message crosses two links (child→hub→child).
        "socket.frame_mb_s" | "socket.stream_mb_s" => on_tcp(2.0 * fragments),
        // Small messages: the non-fragment data plane plus the control
        // plane's round plan, trigger and completion reports; each
        // crossing of the hub is two link traversals, one round trip.
        "socket.rtt_small_us" => on_tcp(messages - fragments + 2.0 * p + k + 1.0),
        "setup.attest_ms" => k * builds,
        // Phase II channels, plus one link handshake per node over TCP.
        "setup.handshake_ms" => p * k + on_tcp(p + k),
        "setup.mapper_ms" => builds,
        other => panic!("no call count for {other}"),
    }
}

/// A secure channel pair, as Phase II establishes one.
fn channel_pair(rng: &mut DetRng) -> (SecureChannel, SecureChannel) {
    let token = SigningKey::generate(rng);
    let init = HandshakeInitiator::new(rng);
    let (response, responder) = respond(init.hello(), &token, rng).expect("respond");
    let initiator = init
        .complete(&response, &token.verifying_key())
        .expect("complete");
    (initiator, responder)
}

/// One end of a loopback TCP link doing what `deta-socket`'s link does
/// per frame: encode, seal, length-prefix, write; and read, de-frame,
/// open, decode.
struct Pipe {
    stream: TcpStream,
    decoder: FrameDecoder,
    channel: SecureChannel,
}

impl Pipe {
    fn new(stream: TcpStream, channel: SecureChannel) -> Pipe {
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Pipe {
            stream,
            decoder: FrameDecoder::new(),
            channel,
        }
    }

    fn send(&mut self, frame: &SocketFrame) -> std::io::Result<()> {
        let record = self.channel.seal_msg(&frame.encode());
        self.stream.write_all(&encode_frame(&record))
    }

    /// The next frame; `None` at end of stream.
    fn recv(&mut self) -> std::io::Result<Option<SocketFrame>> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some(record) = self.decoder.try_next().map_err(std::io::Error::other)? {
                let plain = self
                    .channel
                    .open_msg(&record)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                return SocketFrame::decode(&plain)
                    .map(Some)
                    .ok_or_else(|| std::io::Error::other("malformed frame"));
            }
            match self.stream.read(&mut chunk)? {
                0 => return Ok(None),
                n => self.decoder.push(&chunk[..n]),
            }
        }
    }
}

/// A connected pair of pipes over loopback.
fn pipe_pair(rng: &mut DetRng) -> (Pipe, Pipe) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind loopback");
    let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let (a, b) = channel_pair(rng);
    (Pipe::new(client, a), Pipe::new(server, b))
}

fn data_frame(payload: Vec<u8>, seq: u64) -> SocketFrame {
    SocketFrame::Data {
        src: "party-0".to_string(),
        dst: "agg-0".to_string(),
        seq,
        payload,
    }
}

/// Round-trip time of a small frame over a loopback link, in ms.
fn rtt_small(rng: &mut DetRng) -> Vec<f64> {
    let (mut client, mut server) = pipe_pair(rng);
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        while let Some(frame) = server.recv()? {
            server.send(&frame)?;
        }
        Ok(())
    });
    let frame = data_frame(vec![7; SMALL_PAYLOAD], 0);
    let samples = time_calls(200, BUDGET, || {
        client.send(&frame).expect("rtt send");
        client.recv().expect("rtt recv").expect("rtt echo");
    });
    drop(client);
    echo.join().expect("echo thread").expect("echo");
    samples
}

/// Time to stream a batch of fragment-sized frames one way over a
/// loopback link, in ms per frame.
fn stream(rng: &mut DetRng, payload: &[u8]) -> Vec<f64> {
    let (mut sender, mut receiver) = pipe_pair(rng);
    let (go_tx, go_rx) = std::sync::mpsc::channel::<bool>();
    let frame = data_frame(payload.to_vec(), 0);
    let writer = std::thread::spawn(move || -> std::io::Result<()> {
        while go_rx.recv() == Ok(true) {
            for _ in 0..STREAM_BATCH {
                sender.send(&frame)?;
            }
        }
        Ok(())
    });
    let samples = time_calls(3, BUDGET, || {
        go_tx.send(true).expect("start batch");
        for _ in 0..STREAM_BATCH {
            receiver.recv().expect("stream recv").expect("stream frame");
        }
    });
    let _ = go_tx.send(false);
    writer.join().expect("writer thread").expect("writer");
    samples
        .into_iter()
        .map(|ms| ms / STREAM_BATCH as f64)
        .collect()
}

/// Times every layer of [`TIMED_LAYERS`] at the shapes of `w`.
fn time_layers(w: &Workload, inputs: &Inputs, seed: u64) -> Vec<Timing> {
    let mut rng = DetRng::from_u64(seed).fork(b"perfbench-layers");
    let mut model = w.build_model(&mut rng.clone());
    let shard = &inputs.shards[0];
    let n = w.n_params();
    let mapper = ModelMapper::generate(n, w.aggregators, None, &mut rng);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let mut tid = [0u8; 16];
    rng.fill_bytes(&mut tid);
    let transformer = Transformer::new(mapper.clone(), key, TransformConfig::full());
    let update = model.flat_params();
    let fragments = transformer.transform(&update, &tid);
    let frag_len = fragments[0].len();
    let upload = Msg::Upload {
        round: 1,
        fragment: fragments[0].clone(),
    };
    let encoded = upload.encode().expect("encode upload");
    let (mut seal_end, mut open_end) = channel_pair(&mut rng);
    let inputs_for_agg: Vec<Vec<f32>> = (0..w.parties)
        .map(|_| (0..frag_len).map(|_| rng.next_f32()).collect())
        .collect();
    let weights = vec![1.0f32; w.parties];

    let mut out = Vec::new();
    let mut push = |name: &'static str, bytes: usize, samples: Vec<f64>| {
        out.push(Timing {
            name,
            ms: median(&samples),
            bytes,
        });
    };
    fn t<T>(f: impl FnMut() -> T) -> Vec<f64> {
        time_calls(MIN_REPS, BUDGET, f)
    }

    push(
        "nn.local_train_ms",
        0,
        t(|| train_local(&mut model, shard, w.local_epochs, w.batch_size, w.lr)),
    );
    push(
        "nn.evaluate_ms",
        0,
        t(|| evaluate(&mut model, &inputs.test, 128)),
    );
    push(
        "shuffle.derive_ms",
        0,
        t(|| RoundPermutation::derive(&key, &tid, 0, frag_len)),
    );
    push(
        "transform.forward_ms",
        0,
        t(|| transformer.transform(&update, &tid)),
    );
    push(
        "transform.inverse_ms",
        0,
        t(|| transformer.inverse(&fragments, &tid)),
    );
    push(
        "wire.encode_mb_s",
        encoded.len(),
        t(|| upload.encode().expect("encode")),
    );
    push(
        "wire.decode_mb_s",
        encoded.len(),
        t(|| Msg::decode(&encoded).expect("decode")),
    );
    // Records open only in the order they were sealed, so the open loop
    // replays exactly the records the seal loop made.
    let mut records = Vec::new();
    push(
        "secure.seal_mb_s",
        encoded.len(),
        t(|| records.push(seal_end.seal_msg(&encoded))),
    );
    let opens = records.len() - 1; // one goes to the warm-up call
    let mut sealed = records.into_iter();
    push(
        "secure.open_mb_s",
        encoded.len(),
        time_calls(opens, Duration::ZERO, || {
            let record = sealed.next().expect("a sealed record");
            open_end.open_msg(&record).expect("open")
        }),
    );
    for (name, kind) in [
        ("agg.median_ms", AggKind::CoordinateMedian),
        ("agg.avg_ms", AggKind::IterativeAveraging),
    ] {
        let agg = kind.build();
        push(name, 0, t(|| agg.aggregate(&inputs_for_agg, &weights)));
    }
    let framed_record = seal_end.seal_msg(&data_frame(encoded.clone(), 0).encode());
    let mut decoder = FrameDecoder::new();
    push(
        "socket.frame_mb_s",
        framed_record.len(),
        t(|| {
            decoder.push(&encode_frame(&framed_record));
            decoder.try_next().expect("frame").expect("whole frame")
        }),
    );
    push("socket.rtt_small_us", 0, rtt_small(&mut rng));
    push(
        "socket.stream_mb_s",
        encoded.len(),
        stream(&mut rng, &encoded),
    );

    // Set-up: Phase I attestation, Phase II handshake, mapper draw.
    let ras = AmdRas::new(&mut rng);
    let image = GuestImage::new(b"deta-ovmf-v1".to_vec(), b"deta-aggregator-v1".to_vec());
    let mut proxy = AttestationProxy::new(ras.root_certs(), image.clone(), rng.fork(b"proxy"));
    let mut chip = 0u64;
    let mut platform_rng = rng.fork(b"platforms");
    push(
        "setup.attest_ms",
        0,
        t(|| {
            chip += 1;
            let mut platform = Platform::genuine(&ras, &format!("EPYC-{chip}"), &mut platform_rng);
            proxy
                .verify_and_provision(&mut platform, &image)
                .expect("attest")
        }),
    );
    let token = SigningKey::generate(&mut rng);
    let token_key = token.verifying_key();
    let mut hs_rng = rng.fork(b"handshakes");
    push(
        "setup.handshake_ms",
        0,
        t(|| {
            let init = HandshakeInitiator::new(&mut hs_rng);
            let (response, _) = respond(init.hello(), &token, &mut hs_rng).expect("respond");
            init.complete(&response, &token_key).expect("complete")
        }),
    );
    let mut mapper_rng = rng.fork(b"mapper");
    push(
        "setup.mapper_ms",
        0,
        t(|| ModelMapper::generate(n, w.aggregators, None, &mut mapper_rng)),
    );
    out
}

/// The per-call figure in the layer's unit.
fn per_call_value(layer: &TimedLayer, t: &Timing) -> f64 {
    match layer.unit {
        "MB/s" => t.bytes as f64 / (t.ms * 1e-3) / 1e6,
        "us" => t.ms * 1e3,
        _ => t.ms,
    }
}

/// Times every layer and reports per-call figure, call count and busy
/// time. `messages` is the data-plane message count per round.
pub fn report_layers(w: &Workload, inputs: &Inputs, seed: u64, messages: f64, out: &mut Report) {
    let timings = time_layers(w, inputs, seed);
    for layer in &TIMED_LAYERS {
        let Some(t) = timings.iter().find(|t| t.name == layer.name) else {
            continue;
        };
        let count = calls(w, layer.name, messages);
        out.set(layer.name, per_call_value(layer, t));
        out.set(&layer.count_name(), count);
        out.set(&layer.busy_name(), count * t.ms);
        eprintln!(
            "{:<22} {:>12.4} {:<6} x {:>6} = {:>9.3} ms",
            layer.name,
            per_call_value(layer, t),
            layer.unit,
            count,
            count * t.ms
        );
    }
}

/// The `--trace 1` run: reference pairs, the per-layer timings and the
/// traced run, with every reference session checked like a timed one.
pub fn run(w: &Workload, seed: u64) -> Report {
    let inputs = w.inputs(seed);
    let mut report = Report::default();

    let ffl = reference::deta_vs_ffl(w, &inputs, &mut report);
    let extra = ffl.extra_s_per_round();
    report.set("deta.overhead_s_per_round", median(&extra));
    report.set("deta.overhead_iqr_s", iqr(&extra));
    // DeTA's round time over FFL's, minus one: the paper's overhead.
    let overhead: Vec<f64> = ffl.speed_ratio().iter().map(|r| 1.0 / r - 1.0).collect();
    report.set("deta.overhead_x", median(&overhead));

    let tcp = reference::tcp_vs_in_process(w, &inputs, &mut report);
    let tax = tcp.rates.extra_s_per_round();
    report.set("socket.tax_s_per_round", median(&tax));
    report.set("socket.tax_iqr_s", iqr(&tax));
    report.set("socket.tcp_vs_inproc_x", median(&tcp.rates.speed_ratio()));
    report.set("runtime.failovers", tcp.failovers as f64);
    report.set("runtime.dropped_parties", tcp.dropped_parties as f64);
    report.set("net.messages_per_round", tcp.messages_per_round);

    report_layers(w, &inputs, seed, tcp.messages_per_round, &mut report);

    // Untraced rates of the workload's own deployment, against which
    // the traced run's cost is measured.
    let untraced = match w.deployment {
        Deployment::Sequential => &ffl.with,
        Deployment::BridgedTcp => &tcp.rates.with,
    };
    match traced::spawn(w, seed) {
        Ok((rates, shares)) => {
            report.set("trace.overhead", median(untraced) / median(&rates) - 1.0);
            report.set("trace.noise_floor", iqr(untraced) / median(untraced));
            for (metric, share) in shares {
                report.set(&metric, share);
            }
        }
        Err(e) => report.fail(e),
    }
    report
}
