//! Seeded inputs: the corpus and the request stream of each workload.
//!
//! Everything here is a pure function of `(workload, scale, seed)`. A
//! stream is unbounded and generated lazily, so a timed phase can run
//! for as long as it is asked to; its first `n` requests are the same
//! in every run with the same seed, which is what the replays and the
//! determinism test rely on.

use cned::datasets::dictionary::spanish_dictionary;
use cned::datasets::perturb::{gen_queries, perturb, ASCII_LOWER};
use cned::{Backend, Metric, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Library compute: distinct `d_C` 1-NN queries through the
    /// in-process facade, `Backend::Auto`.
    WordsDcNn,
    /// Served repeated reads: Zipf(1.0) `d_E` 5-NN over a popular set
    /// plus a steady share of fresh queries, cached `Backend::Auto`.
    WordsDeHot,
    /// Served reads beside durable writes: 5-NN, range, inserts and
    /// deletes on a cached 4-shard LAESA with a data dir.
    WordsDeChurn,
}

impl Workload {
    /// Every workload, in the order the steadiness report runs them.
    pub const ALL: [Workload; 3] = [
        Workload::WordsDcNn,
        Workload::WordsDeHot,
        Workload::WordsDeChurn,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WordsDcNn => "words_dc_nn",
            Workload::WordsDeHot => "words_de_hot",
            Workload::WordsDeChurn => "words_de_churn",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's distance.
    pub fn metric(self) -> Metric {
        match self {
            Workload::WordsDcNn => Metric::Contextual { bounded: true },
            Workload::WordsDeHot | Workload::WordsDeChurn => Metric::Levenshtein,
        }
    }

    /// The backend the workload asks the facade for.
    pub fn backend(self) -> Backend {
        match self {
            Workload::WordsDcNn | Workload::WordsDeHot => Backend::Auto,
            Workload::WordsDeChurn => Backend::Laesa { pivots: 16 },
        }
    }

    /// Shard count passed to the builder (`1` = unsharded).
    pub fn shards(self) -> usize {
        match self {
            Workload::WordsDeChurn => 4,
            _ => 1,
        }
    }

    /// Whether the workload puts the hot-query cache in front.
    pub fn cached(self) -> bool {
        !matches!(self, Workload::WordsDcNn)
    }

    /// Whether the workload is served over loopback TCP.
    pub fn served(self) -> bool {
        !matches!(self, Workload::WordsDcNn)
    }
}

/// `k` of every k-NN request.
pub const K: usize = 5;
/// Radius of every range request (`d_E` is integral: two edits).
pub const RADIUS: f64 = 2.0;
/// Edit operations applied to a corpus word to make a query.
const QUERY_EDITS: usize = 2;
/// Edit operations applied to a live item to make an inserted word.
const INSERT_EDITS: usize = 3;
/// One request in this many of the hot stream is a fresh query.
const FRESH_EVERY: usize = 25;
/// Queries generated per block of a lazily extended query supply.
const BLOCK: usize = 512;

/// Sizes of a workload's inputs. [`Scale::full`] is what the
/// benchmark runs; [`Scale::small`] keeps the tests quick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Corpus items.
    pub corpus: usize,
    /// Distinct popular queries of the hot stream.
    pub popular: usize,
    /// Deletes in the write tail that follows the timed reads of the
    /// read-only workloads.
    pub tail: usize,
    /// Stream requests the traced run replays through each layer.
    pub replay: usize,
    /// Fresh set-ups timed back to back at the start of every epoch;
    /// the last one serves the epoch. `setup_s` is the median of all.
    pub setups: usize,
    /// Requests per epoch. Each epoch starts from fresh, timed set-ups,
    /// is warmed up again and sends its own stream; its answers are
    /// checked (and dropped) when it ends. Host-speed states last
    /// seconds, so set-ups spread over the run weigh them the way the
    /// timed phase does (back to back, one run's set-ups read 4.8 ms
    /// and the next run's 9.0 ms, the same work). On the durable
    /// workload it also stops the inserts from growing the index, and
    /// the compute per read with it, from the first second of a run to
    /// the last.
    pub epoch: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full(workload: Workload) -> Scale {
        match workload {
            Workload::WordsDcNn => Scale {
                corpus: 3000,
                popular: 0,
                tail: 1000,
                replay: 1500,
                setups: 1,
                epoch: 10_000,
            },
            Workload::WordsDeHot => Scale {
                corpus: 3000,
                popular: 300,
                tail: 1000,
                replay: 2000,
                setups: 4,
                epoch: 2000,
            },
            Workload::WordsDeChurn => Scale {
                corpus: 1000,
                popular: 0,
                tail: 0,
                replay: 2000,
                setups: 4,
                epoch: 2000,
            },
        }
    }

    /// Test sizes: the same shapes, a few hundred items.
    pub fn small(workload: Workload) -> Scale {
        let full = Scale::full(workload);
        Scale {
            corpus: 300,
            popular: full.popular.min(40),
            tail: full.tail.min(30),
            replay: 120,
            setups: 1,
            epoch: full.epoch.min(120),
        }
    }
}

/// Derive an independent sub-seed for one purpose (SplitMix64 finaliser).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything a run needs besides the unbounded stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The indexed words.
    pub corpus: Vec<Vec<u8>>,
    /// Requests sent before timing starts (the hot set, once each).
    pub warmup: Vec<Request<u8>>,
    /// Deletes sent after the timed reads (read-only workloads).
    pub tail: Vec<Request<u8>>,
}

/// Seed of the dictionary every workload indexes. As in the paper, the
/// dictionary is fixed and the queries are drawn at random: the run's
/// seed drives every request, and a corpus that changed with it would
/// add the cost spread between dictionaries to every timing.
pub const DICTIONARY_SEED: u64 = 2008;

/// Generate a workload's corpus, warm-up and write tail.
pub fn inputs(workload: Workload, scale: Scale, seed: u64) -> Inputs {
    let corpus = spanish_dictionary(scale.corpus, DICTIONARY_SEED);
    let warmup = match workload {
        Workload::WordsDeHot => popular(&corpus, scale, seed)
            .into_iter()
            .map(|query| Request::Knn { query, k: K })
            .collect(),
        _ => Vec::new(),
    };
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let mut slots: Vec<usize> = (0..corpus.len()).collect();
    let tail = (0..scale.tail.min(corpus.len()))
        .map(|i| {
            let j = rng.random_range(i..slots.len());
            slots.swap(i, j);
            Request::Delete { index: slots[i] }
        })
        .collect();
    Inputs {
        corpus,
        warmup,
        tail,
    }
}

/// The hot stream's popular queries, distinct, most popular first.
fn popular(corpus: &[Vec<u8>], scale: Scale, seed: u64) -> Vec<Vec<u8>> {
    let mut supply = QuerySupply::new(corpus.to_vec(), mix(seed, 3));
    (0..scale.popular).map(|_| supply.next()).collect()
}

/// Distinct perturbed corpus words, generated in seeded blocks.
struct QuerySupply {
    corpus: Vec<Vec<u8>>,
    seed: u64,
    block: u64,
    ready: VecDeque<Vec<u8>>,
    seen: HashSet<Vec<u8>>,
}

impl QuerySupply {
    fn new(corpus: Vec<Vec<u8>>, seed: u64) -> QuerySupply {
        QuerySupply {
            corpus,
            seed,
            block: 0,
            ready: VecDeque::new(),
            seen: HashSet::new(),
        }
    }

    /// Mark `query` as used so the supply never yields it.
    fn exclude(&mut self, query: &[u8]) {
        self.seen.insert(query.to_vec());
    }

    fn next(&mut self) -> Vec<u8> {
        loop {
            if let Some(q) = self.ready.pop_front() {
                if self.seen.insert(q.clone()) {
                    return q;
                }
                continue;
            }
            self.block += 1;
            let block = gen_queries(
                &self.corpus,
                BLOCK,
                QUERY_EDITS,
                ASCII_LOWER,
                mix(self.seed, self.block),
            );
            self.ready.extend(block);
        }
    }
}

/// A workload's unbounded, deterministic request stream.
pub struct Stream {
    kind: StreamKind,
}

enum StreamKind {
    /// Distinct 1-NN queries.
    Distinct(QuerySupply),
    /// Zipf(1.0) over the popular set, one fresh query in
    /// [`FRESH_EVERY`] at a fixed spacing.
    Hot {
        popular: Vec<Vec<u8>>,
        cdf: Vec<f64>,
        fresh: QuerySupply,
        rng: StdRng,
        position: usize,
    },
    /// 60% 5-NN, 10% range, 20% inserts, 10% deletes of live items,
    /// tracked on a model of the index contents.
    Churn {
        items: Vec<Vec<u8>>,
        live: Vec<usize>,
        rng: StdRng,
    },
}

impl Stream {
    /// The stream for `workload` over `inputs.corpus` (the hot stream
    /// draws from the warm-up's queries).
    pub fn new(workload: Workload, inputs: &Inputs, seed: u64) -> Stream {
        let corpus = &inputs.corpus;
        let kind = match workload {
            Workload::WordsDcNn => StreamKind::Distinct(QuerySupply::new(corpus.clone(), seed)),
            Workload::WordsDeHot => {
                let popular: Vec<Vec<u8>> =
                    inputs.warmup.iter().map(|r| r.payload().to_vec()).collect();
                let mut fresh = QuerySupply::new(corpus.clone(), mix(seed, 4));
                for q in &popular {
                    fresh.exclude(q);
                }
                let weights: Vec<f64> = (1..=popular.len()).map(|r| 1.0 / r as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                let cdf = weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect();
                StreamKind::Hot {
                    popular,
                    cdf,
                    fresh,
                    rng: StdRng::seed_from_u64(mix(seed, 5)),
                    position: 0,
                }
            }
            Workload::WordsDeChurn => StreamKind::Churn {
                items: corpus.clone(),
                live: (0..corpus.len()).collect(),
                rng: StdRng::seed_from_u64(mix(seed, 6)),
            },
        };
        Stream { kind }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request<u8> {
        match &mut self.kind {
            StreamKind::Distinct(supply) => Request::Nn {
                query: supply.next(),
            },
            StreamKind::Hot {
                popular,
                cdf,
                fresh,
                rng,
                position,
            } => {
                *position += 1;
                let query = if *position % FRESH_EVERY == FRESH_EVERY / 2 {
                    fresh.next()
                } else {
                    let u: f64 = rng.random();
                    let rank = cdf.partition_point(|&c| c < u).min(popular.len() - 1);
                    popular[rank].clone()
                };
                Request::Knn { query, k: K }
            }
            StreamKind::Churn { items, live, rng } => {
                let roll = rng.random_range(0..100u32);
                let base = live[rng.random_range(0..live.len())];
                match roll {
                    0..=59 => Request::Knn {
                        query: perturb(&items[base], QUERY_EDITS, ASCII_LOWER, rng),
                        k: K,
                    },
                    60..=69 => Request::Range {
                        query: perturb(&items[base], QUERY_EDITS, ASCII_LOWER, rng),
                        radius: RADIUS,
                    },
                    70..=89 => {
                        let item = perturb(&items[base], INSERT_EDITS, ASCII_LOWER, rng);
                        live.push(items.len());
                        items.push(item.clone());
                        Request::Insert { item }
                    }
                    _ => {
                        let slot = rng.random_range(0..live.len());
                        Request::Delete {
                            index: live.swap_remove(slot),
                        }
                    }
                }
            }
        }
    }

    /// The first `n` requests of a fresh stream.
    pub fn prefix(workload: Workload, inputs: &Inputs, seed: u64, n: usize) -> Vec<Request<u8>> {
        let mut stream = Stream::new(workload, inputs, seed);
        (0..n).map(|_| stream.next_request()).collect()
    }
}

/// Whether a request changes the index.
pub fn is_write(request: &Request<u8>) -> bool {
    matches!(request, Request::Insert { .. } | Request::Delete { .. })
}
