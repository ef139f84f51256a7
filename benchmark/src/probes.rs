//! Layer probes: small timed loops over one layer's public functions at
//! the workload's own parameters (population, content, fan-out, measured
//! queue depth). They price the operations the decorators cannot see
//! inside — the coding kernels run inside `core.handlers`, the queue
//! inside `sim.runtime.send` — so a move in a layer's self time can be
//! matched to a move in one of its operations.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use mss::core::config::{Reenhance, SessionConfig};
use mss::core::msg::Msg;
use mss::core::schedule::{derived_assignment, initial_assignment, merge_assignment};
use mss::harness::experiments::{fig10, fig11, fig12};
use mss::harness::RunOpts;
use mss::media::kernels::xor_into;
use mss::media::packet::synth_fill;
use mss::media::parity::{div_all, enhance, Coding, Decoder};
use mss::media::{PacketSeq, Seq};
use mss::net::codec::{decode, encode_routed_into};
use mss::overlay::select::select_from_complement;
use mss::overlay::wire::{decode_view, encode_view};
use mss::overlay::{PeerId, View};
use mss::sim::event::{ActorId, Event, EventQueue, TimerId};
use mss::sim::rng::SimRng;
use mss::sim::time::SimTime;

/// How long one probe loop measures. Long enough that the clock reads
/// around it vanish, short enough that all probes fit in a second.
const PROBE_TIME: Duration = Duration::from_millis(40);

/// Repeat `pass` (which performs and returns a number of operations)
/// for [`PROBE_TIME`]; returns nanoseconds per operation.
fn ns_per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut ops = 0u64;
    loop {
        ops += pass();
        let spent = start.elapsed();
        if spent >= PROBE_TIME {
            return spent.as_nanos() as f64 / ops.max(1) as f64;
        }
    }
}

fn mib_per_s(bytes_per_op: usize, ns_per_op: f64) -> f64 {
    bytes_per_op as f64 / (1 << 20) as f64 / (ns_per_op / 1e9)
}

pub struct QueueProbe {
    pub push_ns: f64,
    pub pop_ns: f64,
    pub hold_ns: f64,
}

/// `EventQueue<Msg>` at `population` pending events: fill, the classic
/// hold model (pop the earliest, push one a random increment later), and
/// drain.
pub fn queue(population: usize) -> QueueProbe {
    let p = population.max(16) as u64;
    let timer = |i: u64| Event::<Msg>::Timer {
        actor: ActorId((i % 1024) as u32),
        timer: TimerId(i),
        tag: i,
    };
    // Mean gap of 10 µs between pending events, whatever the population.
    let span = p * 10_000;
    let mut rng = SimRng::new(0x51DE);
    let (mut push, mut hold, mut pop) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let mut cycles = 0u32;
    let started = Instant::now();
    while started.elapsed() < 3 * PROBE_TIME {
        let mut q: EventQueue<Msg> = EventQueue::new();
        let t = Instant::now();
        for i in 0..p {
            q.push(SimTime(rng.gen_below(span)), timer(i));
        }
        push += t.elapsed();
        let t = Instant::now();
        for i in 0..p {
            let (at, ev) = q.pop().expect("prefilled");
            black_box(ev);
            q.push(SimTime(at.0 + 1 + rng.gen_below(2 * span)), timer(p + i));
        }
        hold += t.elapsed();
        let t = Instant::now();
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
        pop += t.elapsed();
        cycles += 1;
    }
    let per = |d: Duration| d.as_nanos() as f64 / (u64::from(cycles) * p) as f64;
    QueueProbe {
        push_ns: per(push),
        pop_ns: per(pop),
        hold_ns: per(hold),
    }
}

pub struct ScheduleProbe {
    pub merge_ns: f64,
    pub derive_ns: f64,
}

/// `merge_assignment` of two sibling parts and `derived_assignment` of a
/// re-division, on the workload's content length, `h` and `H`.
pub fn schedule(cfg: &SessionConfig) -> ScheduleProbe {
    let (l, h, parts) = (cfg.content.packets, cfg.parity_interval, cfg.fanout.max(2));
    let interval = cfg.content.packet_interval_nanos();
    let cur = initial_assignment(l, h, parts, 0, interval);
    let inc = initial_assignment(l, h, parts, 1, interval);
    let merge_ns = ns_per_op(|| {
        black_box(merge_assignment(black_box(&cur), black_box(&inc)).seq.len());
        1
    });
    let derive_ns = ns_per_op(|| {
        let sched = derived_assignment(
            black_box(&cur.seq),
            cur.seq.len() / 4,
            cur.interval_nanos,
            cfg.delta.as_nanos(),
            h,
            parts,
            0,
            Reenhance::DataOnly,
        );
        black_box(sched.seq.len());
        1
    });
    ScheduleProbe {
        merge_ns,
        derive_ns,
    }
}

pub struct MediaProbe {
    pub enhance_ns: f64,
    pub div_ns: f64,
    pub insert_ns: f64,
    pub xor_mib_s: f64,
    pub synth_mib_s: f64,
}

/// The coding plane at the workload's content: whole-content `enhance`
/// and `div_all` (per call), decoder inserts with one loss per recovery
/// segment (per packet), and the two byte kernels at the packet size.
pub fn media(cfg: &SessionConfig) -> MediaProbe {
    let content = cfg.content;
    let (h, parts) = (cfg.parity_interval, cfg.fanout.max(2));
    let data = PacketSeq::data_range(content.packets);
    let enhance_ns = ns_per_op(|| {
        black_box(enhance(black_box(&data), h, true, Coding::Xor).len());
        1
    });
    let enhanced = enhance(&data, h, true, Coding::Xor);
    let div_ns = ns_per_op(|| {
        black_box(div_all(black_box(&enhanced), parts).len());
        1
    });

    // A stream prefix with the first data packet of every recovery
    // segment lost: always recoverable, so both the direct and the parity
    // path of the decoder run.
    let mut data_seen = 0usize;
    let stream: Vec<_> = enhanced
        .iter()
        .take(content.packets.min(2_000) as usize)
        .filter(|id| {
            let lost = id.is_data() && data_seen.is_multiple_of(h);
            data_seen += usize::from(id.is_data());
            !lost
        })
        .map(|id| (id.clone(), content.materialize(id).payload))
        .collect();
    let insert_ns = ns_per_op(|| {
        let mut dec = Decoder::new();
        for (id, payload) in &stream {
            black_box(dec.insert_bytes(id, payload));
        }
        black_box(dec.known_count());
        stream.len() as u64
    });

    let len = content.packet_bytes;
    let (mut dst, src) = (vec![0x5Au8; len], vec![0xA5u8; len]);
    let xor_ns = ns_per_op(|| {
        for _ in 0..64 {
            xor_into(black_box(&mut dst), black_box(&src));
        }
        64
    });
    let mut seq = 0u64;
    let synth_ns = ns_per_op(|| {
        for _ in 0..64 {
            seq = seq % content.packets + 1;
            synth_fill(content.key, Seq(seq), black_box(&mut dst));
        }
        64
    });
    MediaProbe {
        enhance_ns,
        div_ns,
        insert_ns,
        xor_mib_s: mib_per_s(len, xor_ns),
        synth_mib_s: mib_per_s(len, synth_ns),
    }
}

pub struct OverlayProbe {
    pub union_ns: f64,
    pub pick_ns: f64,
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_view: f64,
}

/// View algebra, selection and the view wire codec at the workload's
/// population, on a half-full view.
pub fn overlay(cfg: &SessionConfig) -> OverlayProbe {
    let n = cfg.n;
    let mut rng = SimRng::new(0x0E51);
    let half = |rng: &mut SimRng| {
        let mut v = View::empty(n);
        while v.count() < n / 2 {
            v.insert(PeerId(rng.gen_below(n as u64) as u32));
        }
        v
    };
    let (mut a, b) = (half(&mut rng), half(&mut rng));
    let union_ns = ns_per_op(|| {
        black_box(a.union_with(black_box(&b)));
        1
    });
    let view = half(&mut rng);
    let pick_ns = ns_per_op(|| {
        black_box(select_from_complement(black_box(&view), cfg.fanout, &mut rng).len());
        1
    });
    let mut frame: Vec<u8> = Vec::new();
    let encode_ns = ns_per_op(|| {
        frame.clear();
        encode_view(black_box(&view), &mut frame);
        1
    });
    let decode_ns = ns_per_op(|| {
        black_box(
            decode_view(black_box(&frame), n)
                .expect("own frame decodes")
                .1,
        );
        1
    });
    OverlayProbe {
        union_ns,
        pick_ns,
        encode_ns,
        decode_ns,
        bytes_per_view: frame.len() as f64,
    }
}

pub struct CodecProbe {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_frame: f64,
}

/// The message codec over `corpus`, a sample of what the workload's
/// peers actually sent (collected by the `Runtime` decorator), framed
/// with the routing prefix the live plane uses.
pub fn codec(corpus: &[(ActorId, Msg)]) -> CodecProbe {
    assert!(!corpus.is_empty(), "the codec probe needs a message corpus");
    let mut scratch = BytesMut::with_capacity(2048);
    let encode_ns = ns_per_op(|| {
        for (to, msg) in corpus {
            encode_routed_into(*to, ActorId(0), black_box(msg), &mut scratch);
            black_box(scratch.len());
        }
        corpus.len() as u64
    });
    let frames: Vec<Vec<u8>> = corpus
        .iter()
        .map(|(to, msg)| {
            encode_routed_into(*to, ActorId(0), msg, &mut scratch);
            scratch[4..].to_vec()
        })
        .collect();
    let decode_ns = ns_per_op(|| {
        for f in &frames {
            black_box(decode(black_box(f)).expect("own frame decodes"));
        }
        frames.len() as u64
    });
    let bytes: usize = frames.iter().map(|f| f.len() + 4).sum();
    CodecProbe {
        encode_ns,
        decode_ns,
        bytes_per_frame: bytes as f64 / frames.len() as f64,
    }
}

/// The three committed figure CSVs the gate compares against.
pub const FIG_FILES: [&str; 3] = [
    "results/fig10_dcop.csv",
    "results/fig11_tcop.csv",
    "results/fig12_rate.csv",
];

pub struct FigsPass {
    pub pass_s: f64,
    /// `(file, identical)` for each of [`FIG_FILES`].
    pub files: Vec<(&'static str, bool)>,
}

impl FigsPass {
    pub fn identical(&self) -> bool {
        self.files.iter().all(|(_, same)| *same)
    }
}

/// Regenerate Figures 10–12 at `seeds 16` and compare the rendered CSVs
/// byte for byte with the committed ones under `results/` (read only —
/// nothing is written there). Two sweep threads: the CSVs are identical
/// for any thread count, and two is this benchmark's thread ceiling.
pub fn figs() -> FigsPass {
    let opts = RunOpts {
        seeds: 16,
        threads: 2,
        shards: 0,
        full: false,
    };
    let start = Instant::now();
    let rendered = [fig10::run(&opts), fig11::run(&opts), fig12::run(&opts)];
    let pass_s = start.elapsed().as_secs_f64();
    let files = FIG_FILES
        .iter()
        .zip(&rendered)
        .map(|(path, out)| {
            let same = std::fs::read_to_string(path)
                .is_ok_and(|on_disk| on_disk == out.tables[0].to_csv());
            (*path, same)
        })
        .collect();
    FigsPass { pass_s, files }
}

/// Cost of one `Instant::now()`, so a reader can judge how much of a
/// traced self time is the clock itself.
pub fn clock_ns() -> f64 {
    ns_per_op(|| {
        for _ in 0..256 {
            black_box(Instant::now());
        }
        256
    })
}
