//! The three workloads: set-up, the timed phase, output checks, restarts,
//! and the traced extras.
//!
//! Every update goes through `DurableDatabase` on a [`CountingVfs`] over
//! `MemVfs` with `SyncPolicy::Always`. One writer thread runs whole rounds
//! of [`ROUND`] updates; a second thread folds the view's CDC stream.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use relvu_core::{translate_delete, translate_insert, translate_replace, Test1};
use relvu_deps::FdSet;
use relvu_durability::{
    load_checkpoint, scan, DurabilityError, DurableDatabase, MemVfs, RecoveryReport, SyncPolicy,
    WalOptions,
};
use relvu_engine::{
    BatchOptions, BatchReport, BatchRequest, Database, EngineError, Policy, SubEvent,
    SubscribeOptions, Subscription, UpdateOp, UpdateReport,
};
use relvu_relation::{AttrSet, Relation, Schema, Tuple, Value};

use crate::alloc::live_bytes;
use crate::model::{Model, Row, Verdict, ViewOp};
use crate::stats::{median, quantile, ratio, tmean, Acc, Metrics};
use crate::vfs::CountingVfs;

const VIEW: &str = "v";
/// Updates per round; rounds are regenerated against the live view.
const ROUND: usize = 64;
/// Fresh employee and department values start here, above every value
/// of an initial base.
const FRESH_E: u64 = 1 << 40;
const FRESH_D: u64 = 1 << 41;
/// Samples each latency needs, so p90 has 50 beyond it.
const MIN_SAMPLES: usize = 500;
const MIB: f64 = (1u64 << 20) as f64;

type Ddb = DurableDatabase<CountingVfs>;

#[derive(Clone, Copy)]
enum Shape {
    /// The EDM family `E → D → M0..M(width-1)` with a generated base.
    Family {
        rows: usize,
        depts: usize,
        width: usize,
    },
    /// The 3-row `fixtures::edm()` store, updated by insert+delete pairs
    /// of never-repeated employees.
    Churn,
}

/// One workload's make-up.
pub struct Spec {
    pub name: &'static str,
    shape: Shape,
    policy: Policy,
    /// insert : delete : replace : reject weights of a mixed round.
    mix: [u32; 4],
    /// Rejections alternate between insertions and replacements into a
    /// department outside the view (both rejected before any chase).
    reject_replaces: bool,
    /// Every `batch_every`-th round goes as one `apply_batch`.
    batch_every: usize,
    /// A snapshot read after every `read_every` single updates.
    read_every: usize,
    /// An incremental checkpoint once this many records accumulated.
    ckpt_every: u64,
    /// Heap and storage are read when this many rounds are done.
    mark_rounds: usize,
    /// Rounds of single updates left in the WAL for restart to replay.
    tail_rounds: usize,
    restarts: usize,
    setups: usize,
}

pub const SPECS: [Spec; 3] = [
    Spec {
        name: "exact_mixed",
        shape: Shape::Family {
            rows: 2048,
            depts: 1024,
            width: 4,
        },
        policy: Policy::Exact,
        mix: [6, 1, 2, 1],
        reject_replaces: false,
        batch_every: 2,
        read_every: 1,
        ckpt_every: 512,
        mark_rounds: 8,
        tail_rounds: 1,
        restarts: 31,
        setups: 9,
    },
    Spec {
        name: "large_view",
        shape: Shape::Family {
            rows: 65536,
            depts: 8192,
            width: 4,
        },
        policy: Policy::Test1,
        mix: [3, 1, 0, 1],
        reject_replaces: true,
        batch_every: 2,
        read_every: 3,
        ckpt_every: 1024,
        mark_rounds: 16,
        tail_rounds: 1,
        restarts: 3,
        setups: 5,
    },
    Spec {
        name: "churn_small",
        shape: Shape::Churn,
        policy: Policy::Exact,
        mix: [0; 4],
        reject_replaces: true,
        batch_every: 8,
        read_every: 4,
        ckpt_every: 16384,
        mark_rounds: 1600,
        tail_rounds: 320,
        restarts: 11,
        setups: 201,
    },
];

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Schema, Σ, view, complement and initial base of a workload.
pub struct Inputs {
    schema: Schema,
    fds: FdSet,
    x: AttrSet,
    y: AttrSet,
    base: Relation,
}

fn make_inputs(spec: &Spec, seed: u64) -> Inputs {
    match spec.shape {
        Shape::Family { rows, depts, width } => {
            let b = relvu_workload::schema_gen::edm_family(width);
            let mut rng = Rng(seed);
            let mut base = Relation::new(b.schema.universe());
            for e in 0..rows as u64 {
                let d = rng.below(depts) as u64;
                let mut vals = vec![Value::int(e), Value::int(d)];
                vals.extend((0..width as u64).map(|i| Value::int(1000 + d * width as u64 + i)));
                base.insert(Tuple::new(vals)).expect("arity matches");
            }
            Inputs {
                schema: b.schema,
                fds: b.fds,
                x: b.x,
                y: b.y,
                base,
            }
        }
        Shape::Churn => {
            let f = relvu_workload::fixtures::edm();
            Inputs {
                schema: f.schema,
                fds: f.fds,
                x: f.x,
                y: f.y,
                base: f.base,
            }
        }
    }
}

fn wal_options() -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        progress_every: 0,
        ..WalOptions::default()
    }
}

fn engine(inputs: &Inputs, base: Relation, policy: Policy) -> Database {
    let db = Database::new(inputs.schema.clone(), inputs.fds.clone(), base).expect("legal base");
    db.create_view(VIEW, inputs.x, Some(inputs.y), policy)
        .expect("X and Y are complementary");
    db
}

fn view_tuple((e, d): Row) -> Tuple {
    Tuple::new([e, d])
}

fn update_op(op: &ViewOp) -> UpdateOp {
    match *op {
        ViewOp::Insert(t) => UpdateOp::Insert { t: view_tuple(t) },
        ViewOp::Delete(t) => UpdateOp::Delete { t: view_tuple(t) },
        ViewOp::Replace(t1, t2) => UpdateOp::Replace {
            t1: view_tuple(t1),
            t2: view_tuple(t2),
        },
    }
}

/// Generates each round's updates against the model of the live view.
struct Gen {
    spec: &'static Spec,
    rng: Rng,
    fresh: u64,
    pending: Option<Row>,
    /// The classes (insert, delete, replace, reject) of this round's
    /// family updates.
    classes: Vec<usize>,
}

impl Gen {
    fn fresh_e(&mut self) -> Value {
        self.fresh += 1;
        Value::int(FRESH_E + self.fresh)
    }

    fn fresh_d(&mut self) -> Value {
        self.fresh += 1;
        Value::int(FRESH_D + self.fresh)
    }

    fn any_row(&mut self, m: &Model) -> Row {
        m.row(self.rng.below(m.len()))
    }

    fn reject(&mut self, m: &Model, replace: bool) -> ViewOp {
        let row = self.any_row(m);
        if replace {
            let e = self.fresh_e();
            let d = self.fresh_d();
            ViewOp::Replace(row, (e, d))
        } else {
            ViewOp::Insert((row.0, self.fresh_d()))
        }
    }

    /// The `i`-th update of a round.
    fn op(&mut self, m: &Model, i: usize) -> ViewOp {
        match self.spec.shape {
            Shape::Churn => {
                if i >= ROUND - 2 {
                    return self.reject(m, i == ROUND - 1);
                }
                if let Some(t) = self.pending.take() {
                    return ViewOp::Delete(t);
                }
                let t = (self.fresh_e(), m.dept(self.rng.below(m.dept_count())));
                self.pending = Some(t);
                ViewOp::Insert(t)
            }
            Shape::Family { .. } => {
                if i == 0 {
                    self.deal();
                }
                match self.classes[i] {
                    0 => {
                        let d = self.any_row(m).1;
                        ViewOp::Insert((self.fresh_e(), d))
                    }
                    1 => ViewOp::Delete(self.any_row(m)),
                    2 => {
                        let t1 = self.any_row(m);
                        let d = self.any_row(m).1;
                        ViewOp::Replace(t1, (self.fresh_e(), d))
                    }
                    _ => {
                        let replace = self.spec.reject_replaces && self.rng.next() & 1 == 1;
                        self.reject(m, replace)
                    }
                }
            }
        }
    }

    /// Deal a round's classes: each class gets its weight's share of the
    /// [`ROUND`] slots, in a seeded order, so every round has the same
    /// make-up whatever the seed (a draw per update let the inserts of a
    /// round, and with them the records a restart replays, vary by a
    /// tenth between seeds).
    fn deal(&mut self) {
        let mix = self.spec.mix;
        let total: u32 = mix.iter().sum();
        self.classes = (0..ROUND as u32)
            .map(|j| {
                let mut pos = j * total / ROUND as u32;
                let mut class = 0;
                while pos >= mix[class] {
                    pos -= mix[class];
                    class += 1;
                }
                class
            })
            .collect();
        for j in (1..ROUND).rev() {
            let k = self.rng.below(j + 1);
            self.classes.swap(j, k);
        }
    }
}

/// What the program answered to one update.
enum Outcome {
    Accepted(UpdateReport),
    Rejected(&'static str),
    Failed(String),
}

fn from_engine(r: Result<UpdateReport, EngineError>) -> Outcome {
    match r {
        Ok(rep) => Outcome::Accepted(rep),
        Err(EngineError::Rejected { reason, .. }) => Outcome::Rejected(reason.code()),
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// The system under test: the durable database, or (traced run only) a
/// bare in-memory engine replaying the same stream.
trait Target {
    fn apply(&self, op: UpdateOp) -> Outcome;
    fn batch(&self, reqs: Vec<BatchRequest>) -> Result<BatchReport, String>;
}

impl Target for Ddb {
    fn apply(&self, op: UpdateOp) -> Outcome {
        match DurableDatabase::apply(self, VIEW, op) {
            Err(DurabilityError::Engine(e)) => from_engine(Err(e)),
            Err(e) => Outcome::Failed(e.to_string()),
            Ok(rep) => Outcome::Accepted(rep),
        }
    }

    fn batch(&self, reqs: Vec<BatchRequest>) -> Result<BatchReport, String> {
        self.apply_batch(reqs, &BatchOptions::default())
            .map_err(|e| e.to_string())
    }
}

impl Target for Database {
    fn apply(&self, op: UpdateOp) -> Outcome {
        from_engine(self.apply_op(VIEW, op))
    }

    fn batch(&self, reqs: Vec<BatchRequest>) -> Result<BatchReport, String> {
        Ok(self.apply_batch_parallel(reqs, &BatchOptions::default()))
    }
}

/// Compares every answer with the reference model and folds accepted
/// updates into it.
pub struct Checker {
    model: Model,
    policy: Policy,
    errors: Vec<String>,
    failed: u64,
    accepted: u64,
    rejected: u64,
    /// Test 1 rejections of insertions the paper accepts.
    test1_gap: u64,
}

impl Checker {
    fn new(policy: Policy, inputs: &Inputs) -> Self {
        Checker {
            model: Model::from_base(inputs.base.rows()),
            policy,
            errors: Vec::new(),
            failed: 0,
            accepted: 0,
            rejected: 0,
            test1_gap: 0,
        }
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 8 {
            eprintln!("check failed: {msg}");
        }
        self.errors.push(msg);
    }

    /// Settle one answer; returns the base delta when the base changed.
    fn settle(&mut self, op: &ViewOp, out: &Outcome) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        let verdict = match self.model.verdict(op) {
            Ok(v) => v,
            Err(e) => {
                self.error(format!(
                    "generated an update outside the paper's domain: {e}"
                ));
                return None;
            }
        };
        let exact = self.policy == Policy::Exact || !matches!(op, ViewOp::Insert(_));
        match (verdict, out) {
            (_, Outcome::Failed(e)) => {
                self.failed += 1;
                if self.failed <= 3 {
                    eprintln!("operation failed: {op:?}: {e}");
                }
                None
            }
            (Verdict::Reject(why), Outcome::Rejected(code)) => {
                self.rejected += 1;
                if exact && *code != why.code() {
                    self.error(format!(
                        "{op:?}: rejected as {code}, the paper says {why:?}"
                    ));
                }
                None
            }
            (Verdict::Change, Outcome::Rejected(_)) if !exact => {
                self.rejected += 1;
                self.test1_gap += 1;
                None
            }
            (Verdict::Identity | Verdict::Change, Outcome::Accepted(rep)) => {
                self.accepted += 1;
                let delta = (verdict == Verdict::Change).then(|| {
                    let d = self.model.base_delta(op);
                    self.model.apply(op);
                    d
                });
                if rep.base_rows_after != self.model.len() {
                    let msg = format!(
                        "{op:?}: base has {} rows, the model {}",
                        rep.base_rows_after,
                        self.model.len()
                    );
                    self.error(msg);
                }
                delta
            }
            (v, Outcome::Accepted(_)) => {
                self.error(format!("{op:?}: accepted, the paper says {v:?}"));
                None
            }
            (v, Outcome::Rejected(code)) => {
                self.error(format!("{op:?}: rejected as {code}, the paper says {v:?}"));
                None
            }
        }
    }
}

/// What the traced run records around each call into a layer.
#[derive(Default)]
struct Trace {
    /// Core translator time by operation: insert, replace, delete.
    core: [Acc; 3],
    relation: Acc,
    encode: Acc,
    chase_eqs: u64,
    /// The benchmark's own copy of the base, for `relation.delta_apply_us`.
    base: Option<Relation>,
    /// The benchmark's own copy of the view, the core translators' input:
    /// pinning the engine's view before every update would materialize a
    /// snapshot per commit, which the untraced run never does.
    view: Option<Relation>,
    /// Per timed single update: encode and Vfs time inside it.
    op_encode_ns: Vec<u64>,
    op_io_ns: Vec<u64>,
}

/// Durable-only state: reads, CDC marks, checkpoints, tracing.
struct Durable<'a> {
    ddb: &'a Ddb,
    vfs: CountingVfs,
    inputs: &'a Inputs,
    probe_rng: Rng,
    since_read: usize,
    read_ns: Vec<u64>,
    pin_ns: Vec<u64>,
    view_ns: Vec<u64>,
    /// `(seq, apply call, ack)` of timed single updates that changed the
    /// view.
    cdc_marks: Vec<(u64, Instant, Instant)>,
    ctl: Arc<SubCtl>,
    ckpt: Acc,
    ckpt_every: u64,
    last_ckpt_seq: u64,
    trace: Option<Trace>,
}

/// One pass over a workload's stream.
struct Pass<'a, T: Target> {
    spec: &'static Spec,
    target: &'a T,
    gen: Gen,
    check: Checker,
    base_rows: usize,
    rounds: usize,
    /// Record samples, reads and checkpoints (off for the restart tail).
    timing: bool,
    single_ns: Vec<u64>,
    /// Single-update times by outcome: accepted insert, delete, replace;
    /// rejected.
    by_outcome: [Vec<u64>; 4],
    singles: u64,
    batch_ns: Vec<u64>,
    reused: u64,
    requested: u64,
    attempted: u64,
    last_view_seq: u64,
    durable: Option<Durable<'a>>,
}

impl<'a, T: Target> Pass<'a, T> {
    fn new(spec: &'static Spec, target: &'a T, inputs: &Inputs, seed: u64) -> Self {
        Pass {
            spec,
            target,
            gen: Gen {
                spec,
                rng: Rng(seed ^ 0x5_EED0_F0B5),
                fresh: 0,
                pending: None,
                classes: Vec::new(),
            },
            check: Checker::new(spec.policy, inputs),
            base_rows: inputs.base.len(),
            rounds: 0,
            timing: true,
            single_ns: Vec::new(),
            by_outcome: Default::default(),
            singles: 0,
            batch_ns: Vec::new(),
            reused: 0,
            requested: 0,
            attempted: 0,
            last_view_seq: 0,
            durable: None,
        }
    }

    fn round(&mut self, force_single: bool) {
        let every = self.spec.batch_every;
        if !force_single && every > 0 && self.rounds % every == every - 1 {
            let mut scratch = self.check.model.clone();
            let ops: Vec<ViewOp> = (0..ROUND)
                .map(|i| {
                    let op = self.gen.op(&scratch, i);
                    if scratch.verdict(&op) == Ok(Verdict::Change) {
                        scratch.apply(&op);
                    }
                    op
                })
                .collect();
            self.batch(ops, true);
        } else {
            for i in 0..ROUND {
                let op = self.gen.op(&self.check.model, i);
                self.single(op);
            }
        }
        self.trim();
        self.rounds += 1;
        if self.timing {
            if let Some(d) = &mut self.durable {
                d.maybe_checkpoint(&mut self.check);
            }
        }
    }

    /// Delete rows back to the initial size, so every round sees the same
    /// |V|: one untimed batch of deletes the paper accepts.
    fn trim(&mut self) {
        let Shape::Family { .. } = self.spec.shape else {
            return;
        };
        let m = &self.check.model;
        let excess = m.len().saturating_sub(self.base_rows);
        let mut taken: HashMap<Value, usize> = HashMap::new();
        let mut chosen: HashSet<Value> = HashSet::new();
        let mut ops = Vec::new();
        let mut tries = 0;
        while ops.len() < excess && tries < excess * 50 {
            tries += 1;
            let (e, d) = self.gen.any_row(m);
            let gone = taken.get(&d).copied().unwrap_or(0);
            if !chosen.contains(&e) && m.employees_in(d) >= gone + 2 {
                *taken.entry(d).or_insert(0) += 1;
                chosen.insert(e);
                ops.push(ViewOp::Delete((e, d)));
            }
        }
        if !ops.is_empty() {
            self.batch(ops, false);
        }
    }

    fn single(&mut self, op: ViewOp) {
        self.attempted += 1;
        let traced = self.timing && self.durable.as_ref().is_some_and(|d| d.trace.is_some());
        if traced {
            self.durable
                .as_mut()
                .expect("durable")
                .probe_core(&op, self.spec.policy);
        }
        let eqs0 = chase_equations();
        let io0 = self.durable.as_ref().map_or(0, |d| d.vfs.stats.io_ns());
        let t0 = Instant::now();
        let out = self.target.apply(update_op(&op));
        let t1 = Instant::now();
        let eqs1 = chase_equations();
        let delta = self.check.settle(&op, &out);
        let changed = match (&out, &delta) {
            (Outcome::Accepted(rep), Some(_)) => Some(rep.seq),
            _ => None,
        };
        if let Some(seq) = changed {
            self.last_view_seq = seq;
        }
        if !self.timing {
            return;
        }
        self.singles += 1;
        let ns = (t1 - t0).as_nanos() as u64;
        self.single_ns.push(ns);
        let class = match (&out, &op) {
            (Outcome::Accepted(_), ViewOp::Insert(_)) => 0,
            (Outcome::Accepted(_), ViewOp::Delete(_)) => 1,
            (Outcome::Accepted(_), ViewOp::Replace(..)) => 2,
            _ => 3,
        };
        self.by_outcome[class].push(ns);
        let Some(d) = &mut self.durable else {
            return;
        };
        if let Some(seq) = changed {
            d.cdc_marks.push((seq, t0, t1));
        }
        if let Some(tr) = &mut d.trace {
            tr.chase_eqs += eqs1 - eqs0;
            tr.op_io_ns.push(d.vfs.stats.io_ns() - io0);
            let mut enc = 0;
            if let Outcome::Accepted(rep) = &out {
                let entry = d.ddb.reader().log_range(rep.seq, 1).entries.pop();
                if let Some(entry) = entry {
                    let t = Instant::now();
                    let ok = relvu_durability::encode(&entry).is_ok();
                    enc = t.elapsed().as_nanos() as u64;
                    tr.encode.add(enc);
                    if !ok {
                        self.check
                            .error(format!("seq {}: log entry does not encode", rep.seq));
                    }
                }
            }
            tr.op_encode_ns.push(enc);
        }
        if let Some(delta) = &delta {
            d.own_delta(delta);
        }
        d.since_read += 1;
        if d.since_read >= self.spec.read_every {
            d.since_read = 0;
            self.attempted += 1;
            d.read(&mut self.check);
        }
    }

    fn batch(&mut self, ops: Vec<ViewOp>, timed: bool) {
        self.attempted += ops.len() as u64;
        let reqs = ops
            .iter()
            .map(|op| BatchRequest::new(VIEW, update_op(op)))
            .collect();
        if let Some(d) = &self.durable {
            d.ctl.pause();
        }
        let t0 = Instant::now();
        let rep = self.target.batch(reqs);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(d) = &self.durable {
            d.ctl.resume();
        }
        let rep = match rep {
            Ok(rep) => rep,
            Err(e) => {
                for op in &ops {
                    self.check.settle(op, &Outcome::Failed(e.clone()));
                }
                return;
            }
        };
        if timed && self.timing {
            self.batch_ns.push(ns);
            self.reused += rep.stats.reused as u64;
            self.requested += rep.stats.requests as u64;
        }
        for (op, out) in ops.iter().zip(rep.outcomes) {
            let out = from_engine(out);
            let delta = self.check.settle(op, &out);
            if let (Outcome::Accepted(r), Some(delta)) = (&out, &delta) {
                self.last_view_seq = r.seq;
                if let Some(d) = &mut self.durable {
                    d.own_delta(delta);
                }
            }
        }
    }

    /// Bytes of the benchmark's own sample buffers.
    fn own_bytes(&self) -> usize {
        let mut n = 8 * (self.single_ns.capacity() + self.batch_ns.capacity());
        n += 8 * self.by_outcome.iter().map(Vec::capacity).sum::<usize>();
        if let Some(d) = &self.durable {
            n += 8 * (d.read_ns.capacity() + d.pin_ns.capacity() + d.view_ns.capacity());
            n += d.cdc_marks.capacity() * std::mem::size_of::<(u64, Instant, Instant)>();
            if let Some(tr) = &d.trace {
                n += 8 * (tr.op_encode_ns.capacity() + tr.op_io_ns.capacity());
            }
        }
        n
    }
}

fn chase_equations() -> u64 {
    relvu_obs::counter("core.chase.equations").get()
}

impl Durable<'_> {
    /// Traced run: time the policy's core translator on the benchmark's
    /// copy of the view, which equals the engine's as a set.
    fn probe_core(&mut self, op: &ViewOp, policy: Policy) {
        let Some(tr) = &mut self.trace else {
            return;
        };
        let Some(v) = &tr.view else {
            return;
        };
        let i = self.inputs;
        let (s, f, x, y) = (&i.schema, &i.fds, i.x, i.y);
        let t = Instant::now();
        let (k, ok) = match update_op(op) {
            UpdateOp::Insert { t: row } if policy == Policy::Test1 => {
                (0, Test1.check(s, f, x, y, v, &row).is_ok())
            }
            UpdateOp::Insert { t: row } => (0, translate_insert(s, f, x, y, v, &row).is_ok()),
            UpdateOp::Replace { t1, t2 } => (1, translate_replace(s, f, x, y, v, &t1, &t2).is_ok()),
            UpdateOp::Delete { t: row } => (2, translate_delete(s, f, x, y, v, &row).is_ok()),
        };
        tr.core[k].add(t.elapsed().as_nanos() as u64);
        if !ok {
            eprintln!("core translator refused the input of {op:?}");
        }
    }

    /// Traced run: apply an accepted commit's base delta to the
    /// benchmark's own `Relation`.
    fn own_delta(&mut self, (removed, added): &(Vec<Tuple>, Vec<Tuple>)) {
        let Some(tr) = &mut self.trace else {
            return;
        };
        let (Some(base), Some(view)) = (&mut tr.base, &mut tr.view) else {
            return;
        };
        let t = Instant::now();
        for row in removed {
            base.remove(row);
        }
        for row in added {
            base.insert(row.clone()).expect("base arity");
        }
        tr.relation.add(t.elapsed().as_nanos() as u64);
        for row in removed {
            view.remove(&Tuple::new([row.at(0), row.at(1)]));
        }
        for row in added {
            view.insert(Tuple::new([row.at(0), row.at(1)]))
                .expect("view arity");
        }
    }

    /// Pin a snapshot, read the view, probe a row the model holds.
    fn read(&mut self, check: &mut Checker) {
        let m = &check.model;
        let probe = view_tuple(m.row(self.probe_rng.below(m.len())));
        let t0 = Instant::now();
        let snap = self.ddb.reader().snapshot();
        let t1 = Instant::now();
        let v = snap.view_instance(VIEW);
        let t2 = Instant::now();
        let hit = v.as_ref().is_ok_and(|v| v.contains(&probe));
        let t3 = Instant::now();
        self.read_ns.push((t3 - t0).as_nanos() as u64);
        self.pin_ns.push((t1 - t0).as_nanos() as u64);
        self.view_ns.push((t2 - t1).as_nanos() as u64);
        if !hit {
            check.error(format!("snapshot read missed {probe:?}"));
        }
    }

    fn maybe_checkpoint(&mut self, check: &mut Checker) {
        let seq = self.ddb.reader().last_seq();
        if seq - self.last_ckpt_seq < self.ckpt_every {
            return;
        }
        let t = Instant::now();
        if let Err(e) = self.ddb.checkpoint_incremental() {
            check.error(format!("checkpoint failed: {e}"));
        }
        self.ckpt.add(t.elapsed().as_nanos() as u64);
        self.last_ckpt_seq = seq;
    }
}

/// What the CDC subscriber thread saw.
struct CdcLog {
    /// `(seq, receipt)` per delta.
    recv: Vec<(u64, Instant)>,
    fold: Acc,
    folded: Relation,
    error: Option<String>,
}

/// How long the CDC consumer polls after a delta (or a resume) before it
/// blocks: longer than any gap between two commits of a run of single
/// updates on `churn_small` (a read there takes over 300 µs), so a delta
/// there never waits for a sleeping thread to be woken — on this kind of
/// guest that wake-up took anywhere from tens of µs to milliseconds. On
/// the family workloads the consumer still blocks during the longer gaps
/// (a read of the 64k-row view, a chase-checked commit) instead of
/// keeping a second CPU busy.
const SPIN: Duration = Duration::from_millis(1);

/// The writer's hold on the CDC consumer thread. The writer pauses the
/// consumer's polling while the program runs threads of its own (batch
/// speculation, parallel replay), so a busy consumer does not take a CPU
/// from them.
#[derive(Default)]
struct SubCtl {
    stop: AtomicBool,
    paused: AtomicBool,
    /// Bumped by every resume; the consumer copies it into `polling` once
    /// it polls again.
    resumed: AtomicU64,
    polling: AtomicU64,
    /// The consumer has ended.
    done: AtomicBool,
    /// The last folded seq.
    seen: AtomicU64,
}

impl SubCtl {
    fn pause(&self) {
        self.paused.store(true, Ordering::SeqCst);
    }

    /// Resume polling, and wait until the consumer polls again.
    fn resume(&self) {
        self.paused.store(false, Ordering::SeqCst);
        let gen = self.resumed.fetch_add(1, Ordering::SeqCst) + 1;
        while self.polling.load(Ordering::SeqCst) < gen && !self.done.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
    }
}

/// Marks the consumer ended when its thread ends, by return or by panic,
/// so a resume never waits for it.
struct Done(Arc<SubCtl>);

impl Drop for Done {
    fn drop(&mut self) {
        self.0.done.store(true, Ordering::SeqCst);
    }
}

/// Fold the view's stream on a thread of its own until `stop` is set and
/// the queue is empty.
fn subscriber(
    sub: Subscription,
    mut recv: Vec<(u64, Instant)>,
    ctl: Arc<SubCtl>,
) -> JoinHandle<CdcLog> {
    let writer_cpu = current_cpu();
    thread::spawn(move || {
        let _done = Done(ctl.clone());
        pin_away_from(writer_cpu);
        let mut folded = sub
            .origin_rows()
            .map_or_else(|| Relation::new(AttrSet::default()), |r| (**r).clone());
        let mut fold = Acc::default();
        let mut error = None;
        let (mut last, mut last_gen) = (Instant::now(), 0);
        loop {
            let gen = ctl.resumed.load(Ordering::SeqCst);
            let paused = ctl.paused.load(Ordering::SeqCst);
            if !paused {
                ctl.polling.store(gen, Ordering::SeqCst);
                if gen != last_gen {
                    (last, last_gen) = (Instant::now(), gen);
                }
            }
            let event = if paused || last.elapsed() >= SPIN {
                sub.recv_timeout(Duration::from_millis(1))
            } else {
                let e = sub.try_recv();
                if e.is_none() {
                    thread::yield_now();
                }
                e
            };
            match event {
                Some(SubEvent::Delta(d)) => {
                    let t = Instant::now();
                    last = t;
                    recv.push((d.seq, t));
                    d.fold_into(&mut folded);
                    fold.add(t.elapsed().as_nanos() as u64);
                    ctl.seen.store(d.seq, Ordering::Release);
                }
                Some(other) => {
                    error = Some(format!("subscription ended: {other:?}"));
                    break;
                }
                None if ctl.stop.load(Ordering::Acquire) => break,
                None => {}
            }
        }
        CdcLog {
            recv,
            fold,
            folded,
            error,
        }
    })
}

/// The CPU the calling thread runs on, if the platform says.
fn current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let cpu = unsafe { sched_getcpu() };
    usize::try_from(cpu).ok()
}

/// Keep the calling thread off `cpu` (the writer's), so the consumer and
/// the writer never take turns on one CPU while the other idles. The
/// writer stays unpinned, and so do the program's own worker threads.
fn pin_away_from(cpu: Option<usize>) {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let Some(cpu) = cpu.filter(|&c| c < 1024) else {
        return;
    };
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the mask is a valid 1024-bit `cpu_set_t` that outlives both
    // calls; pid 0 is the calling thread. A failed call leaves the
    // thread's affinity as it was.
    unsafe {
        if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
            return;
        }
        mask[cpu / 64] &= !(1 << (cpu % 64));
        if mask.iter().any(|&w| w != 0) {
            sched_setaffinity(0, size, mask.as_ptr());
        }
    }
}

/// Wait until the subscriber has folded `seq`.
fn drain(ctl: &SubCtl, seq: u64, check: &mut Checker) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while ctl.seen.load(Ordering::Acquire) < seq {
        if Instant::now() > deadline {
            check.error(format!("CDC subscriber never reached seq {seq}"));
            return;
        }
        thread::sleep(Duration::from_micros(100));
    }
}

fn rows_set(rel: &Relation) -> HashSet<Tuple> {
    rel.rows().iter().cloned().collect()
}

/// `π_{cols}` of a relation's rows, as a set.
fn project(rows: &[Tuple], cols: &[usize]) -> HashSet<Vec<Value>> {
    rows.iter()
        .map(|t| cols.iter().map(|&i| t.at(i)).collect())
        .collect()
}

/// The final-state checks: base against the model, view = π_X(base),
/// constant complement, and Σ.
fn final_checks(ddb: &Ddb, inputs: &Inputs, check: &mut Checker) {
    let reader = ddb.reader();
    let base = reader.base();
    let model_rows = check.model.base_rows();
    let want: HashSet<Tuple> = model_rows.iter().cloned().collect();
    if base.len() != want.len() || base.rows().iter().any(|t| !want.contains(t)) {
        check.error(format!(
            "final base ({} rows) differs from the model's ({} rows)",
            base.len(),
            want.len()
        ));
    }
    let pi_x: HashSet<Tuple> = model_rows
        .iter()
        .map(|t| Tuple::new([t.at(0), t.at(1)]))
        .collect();
    match reader.view_instance(VIEW) {
        Ok(v) if rows_set(&v) == pi_x && v.len() == pi_x.len() => {}
        Ok(v) => check.error(format!("view ({} rows) is not π_X of the base", v.len())),
        Err(e) => check.error(format!("view unreadable: {e}")),
    }
    let width = inputs.base.attrs().len();
    let y_cols: Vec<usize> = (1..width).collect();
    if project(base.rows(), &y_cols) != project(inputs.base.rows(), &y_cols) {
        check.error("π_Y of the final base differs from the initial one".into());
    }
    if check.model.complement_rows().len() != project(base.rows(), &y_cols).len() {
        check.error("the model's complement differs from the engine's".into());
    }
    let mut e_to_d: HashMap<Value, Value> = HashMap::new();
    let mut d_to_m: HashMap<Value, Vec<Value>> = HashMap::new();
    for t in base.rows() {
        let v = t.as_slice();
        let fd_ok = *e_to_d.entry(v[0]).or_insert(v[1]) == v[1]
            && *d_to_m.entry(v[1]).or_insert_with(|| v[2..].to_vec()) == v[2..];
        if !fd_ok {
            check.error(format!("Σ fails on the final base at {t:?}"));
            break;
        }
    }
}

/// The store restarts recover, built before the phase so restarts can be
/// spread over it, and the same whatever the phase's length: two full
/// checkpoints, two rounds each followed by an incremental checkpoint,
/// then a tail of single updates left in the WAL for replay.
struct RestartStore {
    image: MemVfs,
    dump: String,
    probe: Tuple,
    /// Updates applied to build it, all checked against the model.
    attempted: u64,
}

fn restart_store(
    spec: &'static Spec,
    inputs: &Inputs,
    seed: u64,
    check: &mut Checker,
) -> RestartStore {
    let vfs = CountingVfs::new(MemVfs::new(), false);
    let db = engine(inputs, inputs.base.clone(), spec.policy);
    let ddb = DurableDatabase::create(vfs.clone(), db, wal_options()).expect("fresh store");
    let mut pass = Pass::new(spec, &ddb, inputs, seed ^ 0x2E5_7A27);
    pass.timing = false;
    for k in 0..4 {
        if k >= 2 {
            pass.round(true);
        }
        let ckpt = if k < 2 {
            ddb.checkpoint()
        } else {
            ddb.checkpoint_incremental()
        };
        if let Err(e) = ckpt {
            pass.check.error(format!("checkpoint failed: {e}"));
        }
    }
    for _ in 0..spec.tail_rounds {
        pass.round(true);
    }
    final_checks(&ddb, inputs, &mut pass.check);
    check.errors.append(&mut pass.check.errors);
    check.failed += pass.check.failed;
    let m = &pass.check.model;
    let probe = view_tuple(m.row(pass.gen.rng.below(m.len())));
    let dump = ddb.reader().dump();
    let attempted = pass.attempted;
    drop(pass);
    drop(ddb);
    RestartStore {
        image: vfs.crash_image(),
        dump,
        probe,
        attempted,
    }
}

/// One restart: recover from the synced bytes, then serve a read.
struct Restart {
    ns: u64,
    report: RecoveryReport,
}

fn restart(store: &RestartStore, threads: usize, check: &mut Checker) -> Option<Restart> {
    let image = CountingVfs::new(store.image.crash_image(), false);
    let opts = WalOptions {
        replay_threads: threads,
        ..wal_options()
    };
    let t0 = Instant::now();
    let (db, report) = match DurableDatabase::recover(image, opts) {
        Ok(r) => r,
        Err(e) => {
            check.error(format!("recovery failed: {e}"));
            return None;
        }
    };
    let hit = db
        .reader()
        .snapshot()
        .view_instance(VIEW)
        .is_ok_and(|v| v.contains(&store.probe));
    let ns = t0.elapsed().as_nanos() as u64;
    if !hit {
        check.error("the first read after restart missed a row".into());
    }
    if db.reader().dump() != store.dump {
        check.error("the recovered dump differs from the pre-restart dump".into());
    }
    Some(Restart { ns, report })
}

/// Set up a store: engine, view, initial checkpoint. Returns its time.
fn setup(spec: &Spec, inputs: &Inputs, traced: bool) -> (Ddb, CountingVfs, u64) {
    let vfs = CountingVfs::new(MemVfs::new(), traced);
    let base = inputs.base.clone();
    let t0 = Instant::now();
    let db = engine(inputs, base, spec.policy);
    let ddb = DurableDatabase::create(vfs.clone(), db, wal_options()).expect("fresh store");
    let ns = t0.elapsed().as_nanos() as u64;
    (ddb, vfs, ns)
}

fn hist(snap: &relvu_obs::Snapshot, name: &str) -> (u64, u64) {
    snap.histogram(name).map_or((0, 0), |h| (h.sum, h.count))
}

/// Mean of an obs histogram's new observations, in µs.
fn hist_delta_us(a: &relvu_obs::Snapshot, b: &relvu_obs::Snapshot, name: &str) -> f64 {
    let (s0, n0) = hist(a, name);
    let (s1, n1) = hist(b, name);
    ratio((s1 - s0) as f64, (n1 - n0) as f64) / 1e3
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What a run prints.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

fn mean(xs: &[u64]) -> f64 {
    ratio(xs.iter().sum::<u64>() as f64, xs.len() as f64)
}

/// Live heap bytes of the engine and its store's process-side state:
/// everything allocated since `live0`, less the in-memory store's file
/// bytes (on disk in a deployment) and the benchmark's sample buffers.
fn engine_heap(live0: usize, vfs: &CountingVfs, own: usize) -> usize {
    use relvu_durability::Vfs;
    let names = vfs.list().unwrap_or_default();
    let store: u64 = names.iter().map(|n| vfs.file_len(n).unwrap_or(0)).sum();
    live_bytes().saturating_sub(live0 + store as usize + own)
}

/// Run one workload for `seconds` of timed rounds.
pub fn run(spec: &'static Spec, seed: u64, seconds: u64, traced: bool) -> RunResult {
    let inputs = make_inputs(spec, seed);
    let recv_buf: Vec<(u64, Instant)> = Vec::with_capacity(spec.mark_rounds * ROUND * 2 + 1024);
    let mut prep = Checker::new(spec.policy, &inputs);
    let store = restart_store(spec, &inputs, seed, &mut prep);

    // Set-up, then the CDC consumer. Further set-ups and every restart
    // are spread evenly over the phase, so their statistics sample the whole
    // run rather than one burst of it.
    let live0 = live_bytes();
    let (ddb, vfs, first_setup) = setup(spec, &inputs, traced);
    let mut setup_ns = vec![first_setup];
    let sub = ddb
        .subscribe(VIEW, SubscribeOptions::snapshot().with_capacity(1 << 16))
        .expect("view exists");
    let ctl = Arc::new(SubCtl::default());
    let sub_thread = subscriber(sub, recv_buf, ctl.clone());
    let heap_setup = engine_heap(live0, &vfs, 0);

    let mut pass = Pass::new(spec, &ddb, &inputs, seed);
    pass.check.errors.append(&mut prep.errors);
    pass.check.failed += prep.failed;
    pass.durable = Some(Durable {
        ddb: &ddb,
        vfs: vfs.clone(),
        inputs: &inputs,
        probe_rng: Rng(seed ^ 0x0EAD_5EED),
        since_read: 0,
        read_ns: Vec::new(),
        pin_ns: Vec::new(),
        view_ns: Vec::new(),
        cdc_marks: Vec::new(),
        ctl: ctl.clone(),
        ckpt: Acc::default(),
        ckpt_every: spec.ckpt_every,
        last_ckpt_seq: ddb.reader().last_seq(),
        trace: traced.then(|| Trace {
            base: Some(inputs.base.clone()),
            view: Some(
                Relation::from_rows(
                    inputs.x,
                    inputs
                        .base
                        .rows()
                        .iter()
                        .map(|t| Tuple::new([t.at(0), t.at(1)])),
                )
                .expect("view arity"),
            ),
            ..Trace::default()
        }),
    });
    let io = vfs.stats.clone();
    let counter = |c: &AtomicU64| c.load(Ordering::Relaxed);
    let (storage0, wal0, ckpt0) = (
        io.storage_bytes(),
        counter(&io.wal_bytes),
        counter(&io.ckpt_bytes),
    );
    let obs0 = relvu_obs::snapshot();
    let cache0 = relvu_deps::closure::cache::stats();

    // The timed phase: whole rounds until the time is up, the heap and
    // storage mark is passed, every spread sample is taken, and the
    // percentiles have their samples. A traced run alternates parallel
    // and sequential replay.
    let restarts_wanted = if traced {
        2 * spec.restarts
    } else {
        spec.restarts
    };
    let mut restarts: Vec<(usize, Restart)> = Vec::new();
    let start = Instant::now();
    let due = |k: usize, n: usize| {
        start.elapsed().as_secs_f64() >= seconds as f64 * (k as f64 + 0.5) / n as f64
    };
    let (mut warm, mut mark) = (None, None);
    loop {
        pass.round(false);
        if pass.rounds == spec.mark_rounds / 4 || pass.rounds == spec.mark_rounds {
            drain(&ctl, pass.last_view_seq, &mut pass.check);
            let heap = engine_heap(live0, &vfs, pass.own_bytes());
            let io_now = (
                io.storage_bytes() - storage0,
                counter(&io.wal_bytes) - wal0,
                counter(&io.ckpt_bytes) - ckpt0,
            );
            if pass.rounds == spec.mark_rounds {
                mark = Some((heap, pass.check.accepted, io_now));
            } else {
                warm = Some((heap, pass.check.accepted));
            }
        }
        if restarts.len() < restarts_wanted && due(restarts.len(), restarts_wanted) {
            let threads = if restarts.len() % 2 == 1 && traced {
                1
            } else {
                0
            };
            ctl.pause();
            if let Some(r) = restart(&store, threads, &mut pass.check) {
                restarts.push((threads, r));
            }
            ctl.resume();
            pass.attempted += 1;
        }
        if setup_ns.len() < spec.setups && due(setup_ns.len() - 1, spec.setups - 1) {
            setup_ns.push(setup(spec, &inputs, false).2);
        }
        let d = pass.durable.as_ref().expect("durable");
        if mark.is_some()
            && start.elapsed().as_secs_f64() >= seconds as f64
            && restarts.len() >= restarts_wanted
            && setup_ns.len() >= spec.setups
            && pass.single_ns.len() >= MIN_SAMPLES
            && d.read_ns.len() >= MIN_SAMPLES
        {
            break;
        }
    }
    let phase = start.elapsed();
    let obs1 = relvu_obs::snapshot();
    let cache1 = relvu_deps::closure::cache::stats();
    let phase_accepted = pass.check.accepted;
    let phase_syncs = counter(&io.syncs);
    let (phase_appends, phase_append_ns) = (counter(&io.appends), counter(&io.append_ns));
    let phase_sync_ns = counter(&io.sync_ns);
    let phase_rounds = pass.rounds;

    // CDC: drain, stop, and compare the folded copy with the view.
    drain(&ctl, pass.last_view_seq, &mut pass.check);
    ctl.stop.store(true, Ordering::Release);
    let cdc = sub_thread.join().expect("subscriber thread");
    if let Some(e) = &cdc.error {
        pass.check.error(e.clone());
    }
    match ddb.reader().view_instance(VIEW) {
        Ok(v) if cdc.folded.set_eq(&v) => {}
        _ => pass
            .check
            .error("the CDC-folded view differs from view_instance".into()),
    }
    final_checks(&ddb, &inputs, &mut pass.check);

    let d = pass.durable.take().expect("durable");
    let recv: HashMap<u64, Instant> = cdc.recv.iter().copied().collect();
    let mut cdc_ns = Vec::new();
    let mut after_ack = Vec::new();
    for (seq, t0, ack) in &d.cdc_marks {
        match recv.get(seq) {
            Some(r) => {
                cdc_ns.push((*r - *t0).as_nanos() as u64);
                after_ack.push(
                    r.duration_since(*ack).as_nanos() as f64
                        - ack.duration_since(*r).as_nanos() as f64,
                );
            }
            None => pass
                .check
                .error(format!("view change {seq} never reached the subscriber")),
        }
    }
    let (heap_live, mark_accepted, (mark_bytes, mark_wal, mark_ckpt)) =
        mark.expect("the mark is always reached");
    let single_ns = pass.single_ns.clone();
    let mut metrics = Metrics::default();
    let mut errors = std::mem::take(&mut pass.check.errors);
    let mut failed = pass.check.failed;
    let mut attempted = pass.attempted + store.attempted;

    eprintln!(
        "{}: seed {seed}, {phase_rounds} rounds in {:.2} s, {} single updates, {} batches, \
         {} reads, {} restarts, {} set-ups; accepted {}, rejected {}, \
         Test 1 rejections the paper accepts: {}",
        spec.name,
        phase.as_secs_f64(),
        pass.singles,
        pass.batch_ns.len(),
        d.read_ns.len(),
        restarts.len(),
        setup_ns.len(),
        pass.check.accepted,
        pass.check.rejected,
        pass.check.test1_gap,
    );
    let mut by = pass.by_outcome.clone();
    let line: Vec<String> = ["insert", "delete", "replace", "rejected"]
        .iter()
        .zip(by.iter_mut())
        .map(|(name, xs)| format!("{name} {} × {:.1} µs", xs.len(), us(median(xs))))
        .collect();
    eprintln!("{}: single-update medians: {}", spec.name, line.join(", "));

    let replay_of = |threads: usize| -> (Vec<u64>, Vec<u64>) {
        restarts
            .iter()
            .filter(|(t, _)| *t == threads)
            .map(|(_, r)| (r.ns, r.report.replay_wall.as_nanos() as u64))
            .unzip()
    };
    let (mut restart_ns, mut replay) = replay_of(0);
    // The spread inside the run, to standard error.
    {
        let mut r = restart_ns.clone();
        let mut c = cdc_ns.clone();
        let records = restarts
            .first()
            .map_or(0, |(_, r)| r.report.records_replayed);
        eprintln!(
            "{}: restarts replaying {records} records: min {:.1}, p25 {:.1}, median {:.1}, \
             p75 {:.1}, max {:.1} ms; CDC p10 {:.1}, median {:.1}, p90 {:.1} µs",
            spec.name,
            ms(quantile(&mut r, 0.0)),
            ms(quantile(&mut r, 0.25)),
            ms(quantile(&mut r, 0.5)),
            ms(quantile(&mut r, 0.75)),
            ms(quantile(&mut r, 1.0)),
            us(quantile(&mut c, 0.1)),
            us(quantile(&mut c, 0.5)),
            us(quantile(&mut c, 0.9)),
        );
    }
    if !traced {
        let busy_ns = single_ns.iter().sum::<u64>() + d.ckpt.ns;
        let mut single_ns = single_ns;
        let mut read_ns = d.read_ns.clone();
        let mut batch_ns = pass.batch_ns.clone();
        metrics.put("update_tmean_us", tmean(&mut single_ns) / 1e3, "us");
        metrics.put("update_p90_us", us(quantile(&mut single_ns, 0.90)), "us");
        metrics.put(
            "updates_per_s",
            ratio(pass.singles as f64, busy_ns as f64 / 1e9),
            "1/s",
        );
        metrics.put("batch_tmean_ms", tmean(&mut batch_ns) / 1e6, "ms");
        metrics.put("read_tmean_us", tmean(&mut read_ns) / 1e3, "us");
        metrics.put("read_p90_us", us(quantile(&mut read_ns, 0.90)), "us");
        metrics.put("cdc_tmean_us", tmean(&mut cdc_ns) / 1e3, "us");
        metrics.put("restart_ms", tmean(&mut restart_ns) / 1e6, "ms");
        metrics.put("heap_live_mb", heap_live as f64 / MIB, "MB");
        metrics.put(
            "storage_bytes_per_update",
            ratio(mark_bytes as f64, mark_accepted as f64),
            "B",
        );
        metrics.put("setup_s", median(&mut setup_ns) as f64 / 1e9, "s");
    } else {
        let mut tr = d.trace.expect("traced");
        let phase_updates = phase_accepted as f64;
        let (hits, misses) = (cache1.hits - cache0.hits, cache1.misses - cache0.misses);

        // Restart stages, timed from outside on the restart store.
        let t = Instant::now();
        let scanned = scan(&store.image).is_ok();
        let scan_ns = t.elapsed().as_nanos() as u64;
        let root = restarts
            .last()
            .and_then(|(_, r)| r.report.checkpoint_chain.first().cloned())
            .unwrap_or_default();
        let t = Instant::now();
        let loaded = load_checkpoint(&store.image, &root).is_ok();
        let load_ns = t.elapsed().as_nanos() as u64;
        if !scanned || !loaded {
            errors.push("the restart store does not scan or load from outside".into());
        }
        let (mut seq_total, mut seq_replay) = replay_of(1);
        let replayed = restarts
            .last()
            .map_or(0, |(_, r)| r.report.records_replayed);
        eprintln!(
            "{}: restart replaying {replayed} records, medians: parallel {:.1} ms \
             (replay {:.1} ms), sequential {:.1} ms (replay {:.1} ms)",
            spec.name,
            ms(median(&mut restart_ns)),
            ms(median(&mut replay)),
            ms(median(&mut seq_total)),
            ms(median(&mut seq_replay)),
        );

        // Second pass: the same stream on a bare in-memory engine.
        let mem = engine(&inputs, inputs.base.clone(), spec.policy);
        let mut second = Pass::new(spec, &mem, &inputs, seed);
        for _ in 0..phase_rounds {
            second.round(false);
        }
        errors.append(&mut second.check.errors);
        failed += second.check.failed;
        attempted += second.attempted;
        let engine_ns = second.single_ns.clone();

        // The share of the durable update time that the timed layers
        // account for: engine + encode + Vfs, summed over the same stream.
        let share = if engine_ns.len() == single_ns.len() {
            let attributed: u64 = engine_ns.iter().sum::<u64>()
                + tr.op_encode_ns.iter().sum::<u64>()
                + tr.op_io_ns.iter().sum::<u64>();
            ratio(attributed as f64, single_ns.iter().sum::<u64>() as f64)
        } else {
            errors.push("the in-memory pass saw a different stream".into());
            0.0
        };
        // Growth per commit between the warm mark and the mark, so
        // one-time structures built after set-up do not count.
        let (heap_warm, warm_accepted) = warm.expect("the warm mark precedes the mark");
        let heap_per_update = ratio(
            heap_live as f64 - heap_warm as f64,
            (mark_accepted - warm_accepted) as f64,
        );
        tr.base = None;
        tr.view = None;

        metrics.put("relation.delta_apply_us", tr.relation.mean_us(), "us");
        metrics.put("core.insert_check_us", tr.core[0].mean_us(), "us");
        metrics.put("core.replace_check_us", tr.core[1].mean_us(), "us");
        metrics.put("core.delete_check_us", tr.core[2].mean_us(), "us");
        metrics.put(
            "chase.equations_per_update",
            ratio(tr.chase_eqs as f64, pass.singles as f64),
            "count",
        );
        metrics.put(
            "deps.closure_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        metrics.put("engine.apply_us", mean(&engine_ns) / 1e3, "us");
        metrics.put(
            "engine.batch_reused_ratio",
            ratio(pass.reused as f64, pass.requested as f64),
            "ratio",
        );
        metrics.put("engine.snapshot_pin_us", mean(&d.pin_ns) / 1e3, "us");
        metrics.put("engine.view_instance_us", mean(&d.view_ns) / 1e3, "us");
        metrics.put("engine.cdc_fold_us", cdc.fold.mean_us(), "us");
        metrics.put(
            "engine.cdc_after_ack_us",
            ratio(after_ack.iter().sum::<f64>(), after_ack.len() as f64) / 1e3,
            "us",
        );
        metrics.put(
            "engine.check_us",
            hist_delta_us(&obs0, &obs1, "engine.check_ns"),
            "us",
        );
        metrics.put(
            "engine.mat_fold_us",
            hist_delta_us(&obs0, &obs1, "engine.mat.delta_ns"),
            "us",
        );
        metrics.put(
            "engine.publish_us",
            hist_delta_us(&obs0, &obs1, "engine.snap.publish_ns"),
            "us",
        );
        metrics.put("durability.encode_us", tr.encode.mean_us(), "us");
        metrics.put(
            "vfs.append_us",
            ratio(phase_append_ns as f64, phase_appends as f64) / 1e3,
            "us",
        );
        metrics.put(
            "vfs.sync_us",
            ratio(phase_sync_ns as f64, phase_syncs as f64) / 1e3,
            "us",
        );
        metrics.put(
            "vfs.syncs_per_update",
            ratio(phase_syncs as f64, phase_updates),
            "count",
        );
        metrics.put(
            "vfs.wal_bytes_per_update",
            ratio(mark_wal as f64, mark_accepted as f64),
            "B",
        );
        metrics.put(
            "vfs.ckpt_bytes_per_update",
            ratio(mark_ckpt as f64, mark_accepted as f64),
            "B",
        );
        metrics.put("durability.checkpoint_ms", d.ckpt.mean_us() / 1e3, "ms");
        metrics.put("durability.wal_scan_ms", ms(scan_ns), "ms");
        metrics.put("durability.ckpt_load_ms", ms(load_ns), "ms");
        metrics.put("durability.replay_ms", ms(median(&mut replay)), "ms");
        metrics.put(
            "durability.replay_sequential_ms",
            ms(median(&mut seq_replay)),
            "ms",
        );
        metrics.put("durability.replayed_records", replayed as f64, "count");
        metrics.put("heap.setup_mb", heap_setup as f64 / MIB, "MB");
        metrics.put("heap.bytes_per_update", heap_per_update, "B");
        metrics.put(
            "traced.update_tmean_us",
            tmean(&mut single_ns.clone()) / 1e3,
            "us",
        );
        metrics.put("traced.attributed_share", share, "ratio");
    }
    errors.append(&mut pass.check.errors);
    RunResult {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
    }
}
