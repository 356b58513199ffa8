//! The reference model: the paper's verdicts on the Employee–Dept–Manager
//! family, computed from plain maps and nothing of the program under test.
//!
//! Schema `E, D, M0..M(w-1)` with `Σ = {E → D, D → Mi}`, view `X = {E, D}`
//! and constant complement `Y = {D, M0..}`; `X ∩ Y = {D}`. Σ ⊨ D → Y and
//! Σ ⊭ D → X, so condition (b) of Theorems 3, 8 and 9 always holds and the
//! verdicts reduce to:
//!
//! * insert `(e, d)` (Theorem 3): identity if present; rejected when `d`
//!   is no department of the view (condition (a)); rejected when `e` works
//!   in another department (the chase equates two constants of `D`);
//!   otherwise the base gains `(e, d, managers(d))`;
//! * delete `(e, d)` (Theorem 8): identity if absent; accepted iff another
//!   employee of `d` remains;
//! * replace `(e1, d1) → (e2, d2)` (Theorem 9): across departments, `d1`
//!   must keep another employee and `d2` must be a department of the view;
//!   in both cases `e2` must not work elsewhere in `V − t1`.

use std::collections::HashMap;

use relvu_relation::{Tuple, Value};

/// A view tuple `(e, d)`.
pub type Row = (Value, Value);

/// One update through the view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ViewOp {
    /// Insert a view tuple.
    Insert(Row),
    /// Delete a view tuple.
    Delete(Row),
    /// Replace the first view tuple by the second.
    Replace(Row, Row),
}

/// Why the paper rejects an update; `code` matches the engine's
/// `RejectReason::code`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Why {
    /// The department is not in `π_D(V)` (Theorem 3 (a)).
    NotInView,
    /// The department would lose its last employee (Theorems 8 and 9 (a)).
    NotInRemainder,
    /// The employee already works in another department (chase, (c)).
    Chase,
    /// The replacement's department is not in `π_D(V)` (Theorem 9 (a)).
    TargetNotInView,
}

impl Why {
    pub fn code(self) -> &'static str {
        match self {
            Why::NotInView => "intersection_not_in_view",
            Why::NotInRemainder => "intersection_not_in_remainder",
            Why::Chase => "chase_counterexample",
            Why::TargetNotInView => "replacement_target_not_in_view",
        }
    }
}

/// The paper's verdict on one update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Translatable; the view (and base) do not change.
    Identity,
    /// Translatable; the base changes.
    Change,
    /// Untranslatable.
    Reject(Why),
}

/// The EDM instance as maps: `E → D`, employees per department, and the
/// constant `D → managers`.
#[derive(Clone)]
pub struct Model {
    /// Employee → (department, position in `emps`).
    rows: HashMap<Value, (Value, usize)>,
    /// Every employee, for uniform sampling.
    emps: Vec<Value>,
    count: HashMap<Value, usize>,
    managers: HashMap<Value, Vec<Value>>,
    /// Departments in first-appearance order, for sampling.
    depts: Vec<Value>,
}

impl Model {
    /// Build from base rows `(e, d, m0, ..)`; panics if they violate Σ,
    /// since every workload starts from a legal base.
    pub fn from_base<'a>(rows: impl IntoIterator<Item = &'a Tuple>) -> Model {
        let mut m = Model {
            rows: HashMap::new(),
            emps: Vec::new(),
            count: HashMap::new(),
            managers: HashMap::new(),
            depts: Vec::new(),
        };
        for t in rows {
            let vals = t.as_slice();
            let (e, d) = (vals[0], vals[1]);
            let mgrs = vals[2..].to_vec();
            match m.managers.get(&d) {
                Some(known) => assert_eq!(known, &mgrs, "D -> M violated in the initial base"),
                None => {
                    m.managers.insert(d, mgrs);
                    m.depts.push(d);
                }
            }
            assert!(
                !m.rows.contains_key(&e),
                "E -> D violated in the initial base"
            );
            m.add(e, d);
        }
        m
    }

    fn add(&mut self, e: Value, d: Value) {
        self.rows.insert(e, (d, self.emps.len()));
        self.emps.push(e);
        *self.count.entry(d).or_insert(0) += 1;
    }

    fn remove(&mut self, e: Value) {
        let (d, pos) = self.rows.remove(&e).expect("present");
        self.emps.swap_remove(pos);
        if let Some(&moved) = self.emps.get(pos) {
            self.rows.get_mut(&moved).expect("present").1 = pos;
        }
        *self.count.get_mut(&d).expect("counted") -= 1;
    }

    /// Number of view (and base) tuples.
    pub fn len(&self) -> usize {
        self.emps.len()
    }

    /// The `i`-th view tuple in the model's own order.
    pub fn row(&self, i: usize) -> Row {
        let e = self.emps[i];
        (e, self.rows[&e].0)
    }

    /// The `i`-th department.
    pub fn dept(&self, i: usize) -> Value {
        self.depts[i]
    }

    /// Number of departments (constant: it is `π_D` of the complement).
    pub fn dept_count(&self) -> usize {
        self.depts.len()
    }

    /// Employees currently in department `d`.
    pub fn employees_in(&self, d: Value) -> usize {
        self.count.get(&d).copied().unwrap_or(0)
    }

    fn contains(&self, (e, d): Row) -> bool {
        self.rows.get(&e).is_some_and(|&(d0, _)| d0 == d)
    }

    fn is_dept(&self, d: Value) -> bool {
        self.employees_in(d) > 0
    }

    /// The paper's verdict. `Err` marks input the paper excludes from
    /// Theorem 9 (`t1 ∉ V`, or `t2 ∈ V` with `t2 ≠ t1`).
    pub fn verdict(&self, op: &ViewOp) -> Result<Verdict, String> {
        Ok(match *op {
            ViewOp::Insert((e, d)) => {
                if self.contains((e, d)) {
                    Verdict::Identity
                } else if !self.is_dept(d) {
                    Verdict::Reject(Why::NotInView)
                } else if self.rows.contains_key(&e) {
                    Verdict::Reject(Why::Chase)
                } else {
                    Verdict::Change
                }
            }
            ViewOp::Delete((e, d)) => {
                if !self.contains((e, d)) {
                    Verdict::Identity
                } else if self.employees_in(d) >= 2 {
                    Verdict::Change
                } else {
                    Verdict::Reject(Why::NotInRemainder)
                }
            }
            ViewOp::Replace(t1, t2) => {
                if !self.contains(t1) {
                    return Err(format!("replace of {t1:?}, which is not in the view"));
                }
                if t1 == t2 {
                    return Ok(Verdict::Identity);
                }
                if self.contains(t2) {
                    return Err(format!("replace by {t2:?}, which is already in the view"));
                }
                let ((e1, d1), (e2, d2)) = (t1, t2);
                if d1 != d2 && self.employees_in(d1) < 2 {
                    Verdict::Reject(Why::NotInRemainder)
                } else if d1 != d2 && !self.is_dept(d2) {
                    Verdict::Reject(Why::TargetNotInView)
                } else if e2 != e1 && self.rows.contains_key(&e2) {
                    Verdict::Reject(Why::Chase)
                } else {
                    Verdict::Change
                }
            }
        })
    }

    /// Apply an update the model accepts (`Verdict::Change`).
    pub fn apply(&mut self, op: &ViewOp) {
        match *op {
            ViewOp::Insert((e, d)) => self.add(e, d),
            ViewOp::Delete((e, _)) => self.remove(e),
            ViewOp::Replace((e1, _), (e2, d2)) => {
                self.remove(e1);
                self.add(e2, d2);
            }
        }
    }

    /// The base rows an accepted change removes and adds, in that order.
    pub fn base_delta(&self, op: &ViewOp) -> (Vec<Tuple>, Vec<Tuple>) {
        match *op {
            ViewOp::Insert(t) => (vec![], vec![self.base_row(t)]),
            ViewOp::Delete(t) => (vec![self.base_row(t)], vec![]),
            ViewOp::Replace(t1, t2) => (vec![self.base_row(t1)], vec![self.base_row(t2)]),
        }
    }

    /// `(e, d, managers(d))`.
    pub fn base_row(&self, (e, d): Row) -> Tuple {
        let mut vals = vec![e, d];
        vals.extend_from_slice(&self.managers[&d]);
        Tuple::new(vals)
    }

    /// Every base row.
    pub fn base_rows(&self) -> Vec<Tuple> {
        (0..self.len())
            .map(|i| self.base_row(self.row(i)))
            .collect()
    }

    /// `π_Y` of the base: one `(d, managers(d))` row per department that
    /// still has employees.
    pub fn complement_rows(&self) -> Vec<Tuple> {
        let mut out: Vec<Tuple> = self
            .depts
            .iter()
            .filter(|d| self.is_dept(**d))
            .map(|&d| {
                let mut vals = vec![d];
                vals.extend_from_slice(&self.managers[&d]);
                Tuple::new(vals)
            })
            .collect();
        out.sort();
        out
    }
}

/// Check the model against the paper's worked example of §2: employees
/// ada and bob in toys (manager grace), cem in books (manager hopper).
pub fn self_check() -> Result<(), String> {
    let f = relvu_workload::fixtures::edm();
    let s = |n: &str| f.dict.sym(n);
    let mut m = Model::from_base(f.base.rows());
    let (ada, bob, cem, dan) = (s("ada"), s("bob"), s("cem"), s("dan"));
    let (toys, books, garden) = (s("toys"), s("books"), s("garden"));
    use ViewOp::*;
    let cases: Vec<(ViewOp, Verdict)> = vec![
        // Hiring into a department the complement knows is translatable…
        (Insert((dan, toys)), Verdict::Change),
        // …into an unknown department it would change the complement…
        (Insert((dan, garden)), Verdict::Reject(Why::NotInView)),
        // …and a second department for ada would violate E → D.
        (Insert((ada, books)), Verdict::Reject(Why::Chase)),
        (Insert((ada, toys)), Verdict::Identity),
        (Delete((ada, toys)), Verdict::Change),
        (Delete((cem, books)), Verdict::Reject(Why::NotInRemainder)),
        (Delete((cem, toys)), Verdict::Identity),
        (Replace((ada, toys), (ada, books)), Verdict::Change),
        (Replace((ada, toys), (dan, books)), Verdict::Change),
        (
            Replace((cem, books), (cem, toys)),
            Verdict::Reject(Why::NotInRemainder),
        ),
        (
            Replace((ada, toys), (dan, garden)),
            Verdict::Reject(Why::TargetNotInView),
        ),
        (
            Replace((ada, toys), (cem, toys)),
            Verdict::Reject(Why::Chase),
        ),
    ];
    for (op, want) in &cases {
        let got = m.verdict(op)?;
        if got != *want {
            return Err(format!(
                "{op:?}: model says {got:?}, the paper says {want:?}"
            ));
        }
    }
    if m.verdict(&Replace((dan, toys), (ada, toys))).is_ok() {
        return Err("a replace of a tuple outside the view must be refused".into());
    }
    // Moving ada to books keeps the complement and the base legal.
    let before = m.complement_rows();
    m.apply(&Replace((ada, toys), (ada, books)));
    if m.complement_rows() != before || m.employees_in(books) != 2 || m.len() != 3 {
        return Err("replace (ada, toys) -> (ada, books) changed the complement".into());
    }
    let want = f.dict.sym("grace");
    if m.base_row((bob, toys)).as_slice()[2] != want {
        return Err("bob's manager must stay grace".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn model_matches_the_papers_edm_example() {
        super::self_check().unwrap();
    }
}
