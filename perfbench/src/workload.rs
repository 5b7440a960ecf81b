//! The end-to-end runs: set-ups, warm-up, the timed closed loop in
//! epochs, the write tail, and the oracle check of every epoch.

use crate::exec::{timed, Record, Target};
use crate::gen::{is_write, Inputs, Scale, Stream, Workload};
use crate::measure::peak_rss_mb;
use crate::oracle::{expect_reads, is_failure, matches, Model};
use cned::core::metric::Distance;
use cned::{Client, Database, Request, ResponseBody, ServerConfig, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `snapshot_every` of the durable workload: a snapshot pause lands
/// on about one write in this many, well inside the write tail.
pub const SNAPSHOT_EVERY: u64 = 16;

/// Threads the oracle may use (the host has two cores).
const ORACLE_THREADS: usize = 2;

/// Build the workload's database over `items` exactly as a user would.
pub fn build(workload: Workload, items: Vec<Vec<u8>>) -> Database<u8> {
    build_as(workload, items, workload.cached())
}

/// [`build`], with the hot-query cache on or off.
pub fn build_as(workload: Workload, items: Vec<Vec<u8>>, cache: bool) -> Database<u8> {
    let builder = Database::builder(items)
        .metric(workload.metric())
        .backend(workload.backend())
        .shards(workload.shards());
    let builder = if cache { builder.cache() } else { builder };
    builder
        .build()
        .expect("workload databases are non-empty and well-formed")
}

/// The server knobs: defaults, plus the durable workload's fresh data
/// dir and snapshot policy when one is given.
pub fn server_config(data_dir: Option<&Path>) -> ServerConfig {
    match data_dir {
        Some(dir) => ServerConfig::default()
            .data_dir(dir)
            .snapshot_every(SNAPSHOT_EVERY),
        None => ServerConfig::default(),
    }
}

/// Serve `db` on an ephemeral loopback port.
pub fn serve(db: Database<u8>, config: ServerConfig) -> ServerHandle<u8> {
    db.serve_with("127.0.0.1:0", config)
        .expect("binding a loopback port")
}

/// Connect a client to `handle`.
pub fn connect(handle: &ServerHandle<u8>) -> Client<u8> {
    Client::connect(handle.local_addr()).expect("connecting over loopback")
}

/// A database made ready to answer, in the workload's shape, and the
/// data dir it owns (the durable workload's only).
struct Ready {
    state: ReadyState,
    dir: Option<PathBuf>,
}

enum ReadyState {
    InProcess(Database<u8>),
    Served(ServerHandle<u8>),
}

impl Ready {
    fn close(self) {
        if let ReadyState::Served(handle) = self.state {
            drop(handle.shutdown());
        }
        remove(self.dir);
    }
}

fn remove(dir: Option<PathBuf>) {
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// One fresh set-up from the generated items to ready-to-answer, timed:
/// the build (planning included) and, for the durable workload, serving
/// from an empty data dir (first snapshot included).
fn set_up(workload: Workload, inputs: &Inputs, dir: PathBuf) -> (Ready, f64) {
    let items = inputs.corpus.clone();
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let db = build(workload, items);
    let ready = if workload == Workload::WordsDeChurn {
        Ready {
            state: ReadyState::Served(serve(db, server_config(Some(&dir)))),
            dir: Some(dir),
        }
    } else {
        Ready {
            state: ReadyState::InProcess(db),
            dir: None,
        }
    };
    (ready, start.elapsed().as_secs_f64())
}

/// The surface a run talks to.
struct Live {
    surface: Surface,
    dir: Option<PathBuf>,
}

enum Surface {
    InProcess(Database<u8>),
    Served(ServerHandle<u8>, Client<u8>),
}

impl Live {
    fn new(ready: Ready, workload: Workload) -> Live {
        let Ready { state, dir } = ready;
        let handle = match state {
            ReadyState::InProcess(db) if workload.served() => serve(db, server_config(None)),
            ReadyState::InProcess(db) => {
                return Live {
                    surface: Surface::InProcess(db),
                    dir,
                }
            }
            ReadyState::Served(handle) => handle,
        };
        let client = connect(&handle);
        Live {
            surface: Surface::Served(handle, client),
            dir,
        }
    }

    fn target(&mut self) -> &mut dyn Target {
        match &mut self.surface {
            Surface::InProcess(db) => db,
            Surface::Served(_, client) => client,
        }
    }

    fn close(self) {
        if let Surface::Served(handle, client) = self.surface {
            drop(client);
            drop(handle.shutdown());
        }
        remove(self.dir);
    }
}

/// The oracle's verdict on a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Requests answered, warm-ups and tail included.
    pub attempted: usize,
    /// Typed errors, refusals and deadline misses.
    pub errors: usize,
    /// Answers that differ from the oracle.
    pub wrong: usize,
}

impl Verdict {
    /// Failed operations: errors plus wrong answers.
    pub fn failed(&self) -> usize {
        self.errors + self.wrong
    }
}

/// One end-to-end run's observations. Every epoch's answers are checked
/// when the epoch ends and then dropped, so the benchmark's own memory
/// does not grow with the request rate.
pub struct E2e {
    /// Seconds of each fresh set-up.
    pub setups_s: Vec<f64>,
    /// Nanoseconds of each answered read of the timed phase (failed
    /// calls are counted in the verdict, never sampled).
    pub reads_ns: Vec<u64>,
    /// Nanoseconds of each answered write (timed phase and tail).
    pub writes_ns: Vec<u64>,
    /// Requests completed in the timed phase.
    pub timed_ops: usize,
    /// Seconds spent answering them (set-ups, warm-ups and checks
    /// between epochs excluded).
    pub timed_s: f64,
    /// Epochs run.
    pub epochs: usize,
    /// Peak resident memory (`VmHWM`) once the first epoch's timed
    /// requests are answered, in MiB: set-ups, warm-up and one epoch of
    /// serving (cache fills, index growth, compactions, WAL and
    /// snapshots). Later epochs restart the server; resident memory
    /// keeps growing across the restarts although every server and its
    /// database are dropped (memory the allocator keeps), so a later
    /// reading measures the restarts: on `words_de_hot` the figure grew
    /// from 6.2 MiB after epoch 0 to 8.2-9.0 MiB by epoch 4, and over
    /// five runs read at the end it spread 13% against 6% read here.
    pub peak_rss_mb: f64,
    /// The oracle's verdict over every answer.
    pub verdict: Verdict,
    /// Answers to the first [`Scale::replay`] requests of epoch 0, which
    /// the traced replays send again.
    pub first: Vec<ResponseBody>,
    /// Answers to the write tail.
    pub tail: Vec<ResponseBody>,
}

impl E2e {
    /// Latencies in milliseconds of reads (`write = false`) or writes.
    pub fn latencies_ms(&self, write: bool) -> Vec<f64> {
        let ns = if write {
            &self.writes_ns
        } else {
            &self.reads_ns
        };
        ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// The seed of an epoch's stream; epoch 0 uses the run's seed, so the
/// traced replays see the same requests.
pub fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    if epoch == 0 {
        seed
    } else {
        crate::gen::mix(seed, 1000 + epoch as u64)
    }
}

/// Run `workload` end to end for `seconds` of timed requests, in
/// epochs of [`Scale::epoch`] requests. Each epoch starts from
/// [`Scale::setups`] fresh set-ups timed back to back (the last one
/// serves it), sends the warm-up and then its own stream; the last one
/// ends with the write tail. `data_dir` is where the durable workload
/// keeps its files.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    inputs: &Inputs,
    seconds: f64,
    data_dir: &Path,
) -> E2e {
    let metric: Arc<dyn Distance<u8>> = workload.metric().build();
    let clock = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut spent = Duration::ZERO;
    let mut run = E2e {
        setups_s: Vec::new(),
        reads_ns: Vec::new(),
        writes_ns: Vec::new(),
        timed_ops: 0,
        timed_s: 0.0,
        epochs: 0,
        peak_rss_mb: f64::NAN,
        verdict: Verdict::default(),
        first: Vec::new(),
        tail: Vec::new(),
    };
    let mut fresh = 0usize;
    // One epoch's requests and answers, reused from epoch to epoch.
    let per_epoch = inputs.warmup.len() + scale.epoch + inputs.tail.len();
    let mut requests: Vec<Request<u8>> = Vec::with_capacity(per_epoch);
    let mut records: Vec<Record> = Vec::with_capacity(per_epoch);
    loop {
        let mut ready = None;
        for _ in 0..scale.setups.max(1) {
            if let Some(previous) = ready.take() {
                Ready::close(previous);
            }
            let dir = data_dir.join(format!("setup-{fresh}"));
            fresh += 1;
            let (made, s) = set_up(workload, inputs, dir);
            run.setups_s.push(s);
            ready = Some(made);
        }
        let mut live = Live::new(ready.expect("at least one set-up"), workload);

        requests.clear();
        records.clear();
        for request in &inputs.warmup {
            records.push(timed(live.target(), request, requests.len(), clock));
            requests.push(request.clone());
        }
        let warm = records.len();
        let mut stream = Stream::new(workload, inputs, epoch_seed(seed, run.epochs));
        let start = Instant::now();
        while records.len() - warm < scale.epoch
            && (run.timed_ops + records.len() == warm || spent + start.elapsed() < budget)
        {
            let request = stream.next_request();
            records.push(timed(live.target(), &request, requests.len(), clock));
            requests.push(request);
        }
        spent += start.elapsed();
        if run.epochs == 0 {
            run.peak_rss_mb = peak_rss_mb();
        }
        let epoch_end = records.len();
        run.timed_ops += epoch_end - warm;
        let last = spent >= budget;
        if last {
            for request in &inputs.tail {
                records.push(timed(live.target(), request, requests.len(), clock));
                requests.push(request.clone());
            }
        }
        live.close();

        let answered: Vec<(&Request<u8>, &ResponseBody)> = requests
            .iter()
            .zip(records.iter().map(|r| &r.body))
            .collect();
        let verdict = check(&metric, &inputs.corpus, &answered);
        run.verdict.attempted += verdict.attempted;
        run.verdict.errors += verdict.errors;
        run.verdict.wrong += verdict.wrong;
        // Warm-up calls are checked, never sampled.
        for record in &records[warm..] {
            if !is_failure(&record.body) {
                let ns = if record.write {
                    &mut run.writes_ns
                } else {
                    &mut run.reads_ns
                };
                ns.push(record.ns);
            }
        }
        if run.epochs == 0 {
            let kept = (epoch_end - warm).min(scale.replay);
            run.first = records[warm..warm + kept]
                .iter()
                .map(|r| r.body.clone())
                .collect();
        }
        run.epochs += 1;
        if last {
            run.tail = records[epoch_end..]
                .iter()
                .map(|r| r.body.clone())
                .collect();
            break;
        }
    }
    run.timed_s = spent.as_secs_f64();
    run
}

/// Check one epoch's answers against the oracle, starting from the
/// generated corpus: reads that precede the first write see it pristine
/// and are checked in parallel; the rest replay on the model.
fn check(
    metric: &Arc<dyn Distance<u8>>,
    corpus: &[Vec<u8>],
    answered: &[(&Request<u8>, &ResponseBody)],
) -> Verdict {
    let pristine = answered.iter().take_while(|(r, _)| !is_write(r)).count();
    let reads: Vec<&Request<u8>> = answered[..pristine].iter().map(|(r, _)| *r).collect();
    let mut expected = expect_reads(metric, corpus, &reads, ORACLE_THREADS);
    let mut model = Model::new(Arc::clone(metric), corpus);
    for (request, _) in &answered[pristine..] {
        expected.push(model.apply(request));
    }
    let mut verdict = Verdict::default();
    for ((_, body), want) in answered.iter().zip(&expected) {
        verdict.attempted += 1;
        if is_failure(body) {
            verdict.errors += 1;
        } else if !matches(body, want) {
            verdict.wrong += 1;
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use cned::{Neighbour, SearchError, SearchStats};

    #[test]
    fn failed_calls_and_wrong_answers_fail_the_check() {
        let metric: Arc<dyn Distance<u8>> = Workload::WordsDeHot.metric().build();
        let corpus = vec![b"casa".to_vec(), b"cosa".to_vec()];
        let read = Request::Nn {
            query: b"cosa".to_vec(),
        };
        let answer = |index| ResponseBody::Nn {
            neighbour: Some(Neighbour {
                index,
                distance: 0.0,
            }),
            stats: SearchStats::default(),
        };
        let right = answer(1);
        let wrong = answer(0);
        let failed = ResponseBody::Failed {
            error: SearchError::Shutdown,
        };
        let verdict = check(
            &metric,
            &corpus,
            &[(&read, &right), (&read, &wrong), (&read, &failed)],
        );
        assert_eq!(
            verdict,
            Verdict {
                attempted: 3,
                errors: 1,
                wrong: 1,
            }
        );
        assert_eq!(verdict.failed(), 2);
    }
}
