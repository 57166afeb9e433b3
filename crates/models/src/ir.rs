//! The paper's models as declarative axiom tables over the relational IR.
//!
//! Each model of Fig. 4 (SC/TSC), Fig. 5 (x86 ± TM), Fig. 6 (Power ± TM),
//! Fig. 8 (ARMv8 ± TM) and Fig. 9 (C++ ± TM) — plus the §3.3 isolation
//! axioms and the §8.3 `CROrder` axiom — is declared here as a list of
//! [`Axiom`]s whose bodies are interned into **one shared**
//! [`IrPool`](tm_exec::ir::IrPool). Hash-consing makes sharing structural:
//! `acyclic(poloc ∪ com)` is one node tree whether x86, Power or ARMv8 asks,
//! and the evaluator computes it once per execution however many models
//! check it (see [`tm_exec::ir`]).
//!
//! The hand-written checks the models carried before this table existed
//! have been retired after their one-release soak; `tests/ir_parity.rs`
//! now pins the IR against its *enumeration oracles* instead — the memoized
//! and recomputing views must agree, the full-verdict and early-exit paths
//! must agree, and the stateful [`IncrementalChecker`] driven by the
//! delta-threading enumeration must agree with all of them, on the catalog
//! and on every enumerated execution at small bounds.
//!
//! # Defining a new model
//!
//! A model is nothing but axioms, so a new one is a table, not a Rust
//! module. [`IrModel`] packages a user-built table as a
//! [`MemoryModel`](crate::MemoryModel):
//!
//! ```
//! use tm_exec::catalog;
//! use tm_exec::ir::{AxiomHead, RelBase};
//! use tm_models::ir::IrModel;
//! use tm_models::MemoryModel;
//!
//! // "Transactional coherence": SC per location, plus weak isolation.
//! let model = IrModel::new("SC-per-loc+WeakIsol", |p| {
//!     let poloc = p.base(RelBase::Poloc);
//!     let com = p.base(RelBase::Com);
//!     let stxn = p.base(RelBase::Stxn);
//!     let coherence = p.union(poloc, com);
//!     let lifted = p.weaklift(com, stxn);
//!     vec![
//!         p.axiom("Coherence", AxiomHead::Acyclic, coherence),
//!         p.axiom("WeakIsol", AxiomHead::Acyclic, lifted),
//!     ]
//! });
//! assert!(model.is_consistent(&catalog::sb()));
//! assert!(!model.is_consistent(&catalog::lb_txn()));
//! assert!(model.check(&catalog::fig1()).violates("Coherence"));
//! ```

use std::borrow::Cow;
use std::sync::OnceLock;

use tm_exec::ir::{
    Axiom, AxiomHead, Delta, IncrementalEval, IrEval, IrPool, RelBase, RelId, SetBase,
};
use tm_exec::{ExecView, Fence};

use crate::{Target, Verdict};

/// The axiom table of one model variant: axioms in declaration order (the
/// order verdicts report them in) plus a cheapest-first order for early-exit
/// boolean sweeps.
#[derive(Debug)]
pub struct ModelAxioms {
    name: Cow<'static, str>,
    axioms: Vec<Axiom>,
    by_cost: Vec<usize>,
}

impl ModelAxioms {
    /// Packages a named list of axioms, precomputing the cheapest-first
    /// check order. Public so runtime loaders (the `tm-cat` crate) can build
    /// tables outside this crate.
    pub fn new(name: impl Into<Cow<'static, str>>, axioms: Vec<Axiom>) -> ModelAxioms {
        let mut by_cost: Vec<usize> = (0..axioms.len()).collect();
        by_cost.sort_by_key(|&i| axioms[i].cost);
        ModelAxioms {
            name: name.into(),
            axioms,
            by_cost,
        }
    }

    /// The model's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The display name as a clonable [`Cow`] (free for built-in tables).
    pub fn name_cow(&self) -> Cow<'static, str> {
        self.name.clone()
    }

    /// The axioms in declaration (reporting) order.
    pub fn axioms(&self) -> &[Axiom] {
        &self.axioms
    }

    /// The axioms ordered by estimated evaluation cost, cheapest first.
    pub fn in_cost_order(&self) -> impl Iterator<Item = &Axiom> {
        self.by_cost.iter().map(|&i| &self.axioms[i])
    }
}

/// The shared axiom catalog: one pool, ten model tables, the isolation
/// axioms and `CROrder`.
#[derive(Debug)]
pub struct IrCatalog {
    pool: IrPool,
    sc: ModelAxioms,
    tsc: ModelAxioms,
    x86: ModelAxioms,
    x86_tm: ModelAxioms,
    power: ModelAxioms,
    power_tm: ModelAxioms,
    armv8: ModelAxioms,
    armv8_tm: ModelAxioms,
    cpp: ModelAxioms,
    cpp_tm: ModelAxioms,
    cr_order: Axiom,
    weak_isol: Axiom,
    strong_isol: Axiom,
    strong_isol_atomic: Axiom,
}

impl IrCatalog {
    /// The pool every table's bodies are interned in.
    pub fn pool(&self) -> &IrPool {
        &self.pool
    }

    /// The axiom table of a target model.
    pub fn model(&self, target: Target) -> &ModelAxioms {
        match target {
            Target::Sc => &self.sc,
            Target::Tsc => &self.tsc,
            Target::X86 => &self.x86,
            Target::X86Tm => &self.x86_tm,
            Target::Power => &self.power,
            Target::PowerTm => &self.power_tm,
            Target::Armv8 => &self.armv8,
            Target::Armv8Tm => &self.armv8_tm,
            Target::Cpp => &self.cpp,
            Target::CppTm => &self.cpp_tm,
        }
    }

    /// The `CROrder` axiom of §8.3 (opt-in on the hardware models).
    pub fn cr_order(&self) -> &Axiom {
        &self.cr_order
    }

    /// The `WeakIsol` axiom of §3.3.
    pub fn weak_isol(&self) -> &Axiom {
        &self.weak_isol
    }

    /// The `StrongIsol` axiom of §3.3.
    pub fn strong_isol(&self) -> &Axiom {
        &self.strong_isol
    }

    /// `StrongIsol` lifted over atomic transactions only (Theorem 7.2).
    pub fn strong_isol_atomic(&self) -> &Axiom {
        &self.strong_isol_atomic
    }
}

/// The process-wide catalog, built once on first use.
pub fn catalog() -> &'static IrCatalog {
    static CATALOG: OnceLock<IrCatalog> = OnceLock::new();
    CATALOG.get_or_init(build_catalog)
}

fn build_catalog() -> IrCatalog {
    let mut pool = IrPool::new();
    let p = &mut pool;

    // ---- vocabulary shared across models ---------------------------------
    let po = p.base(RelBase::Po);
    let rf = p.base(RelBase::Rf);
    let co = p.base(RelBase::Co);
    let rmw = p.base(RelBase::Rmw);
    let stxn = p.base(RelBase::Stxn);
    let scr = p.base(RelBase::Scr);
    let com = p.base(RelBase::Com);
    let poloc = p.base(RelBase::Poloc);
    let fr = p.base(RelBase::Fr);
    let rfe = p.base(RelBase::Rfe);
    let rfi = p.base(RelBase::Rfi);
    let coe = p.base(RelBase::Coe);
    let fre = p.base(RelBase::Fre);
    let come = p.base(RelBase::Come);
    let tfence = p.base(RelBase::Tfence);
    let reads = p.set_base(SetBase::Reads);
    let writes = p.set_base(SetBase::Writes);
    let id_r = p.id_on(reads);
    let id_w = p.id_on(writes);

    // Axiom bodies common to several models (Fig. 5/6/8).
    let coherence_body = p.union(poloc, com);
    let fre_coe = p.seq(fre, coe);
    let rmw_isol_body = p.inter(rmw, fre_coe);
    let strong_isol_body = p.stronglift(com, stxn);
    let tfence_plus = p.plus(tfence);
    let txn_cancels_body = p.inter(rmw, tfence_plus);
    let po_com = p.union(po, com);

    // The dependency-ordered fragment shared verbatim by the Power `ppo`
    // and ARMv8 `dob` approximations.
    let addr = p.base(RelBase::Addr);
    let data = p.base(RelBase::Data);
    let ctrl = p.base(RelBase::Ctrl);
    let deps = p.union(addr, data);
    let deps_rfi = p.seq(deps, rfi);
    let ctrl_w = p.seq(ctrl, id_w);
    let dep_order = {
        let parts = p.union_all(&[deps, deps_rfi, ctrl_w]);
        p.inter(parts, po)
    };

    // ---- Fig. 4: SC and TSC ----------------------------------------------
    let sc_order = p.axiom("Order", AxiomHead::Acyclic, po_com);
    let tsc_lift = p.stronglift(po_com, stxn);
    let sc = ModelAxioms::new("SC", vec![sc_order.clone()]);
    let tsc = ModelAxioms::new(
        "TSC",
        vec![sc_order, p.axiom("TxnOrder", AxiomHead::Acyclic, tsc_lift)],
    );

    // ---- Fig. 5: x86 ± TM -------------------------------------------------
    let x86_hb_base = {
        // ppo = ((W×W) ∪ (R×W) ∪ (R×R)) ∩ po — everything except W→R.
        let ww = p.cross(writes, writes);
        let rw = p.cross(reads, writes);
        let rr = p.cross(reads, reads);
        let ppo = {
            let u = p.union_all(&[ww, rw, rr]);
            p.inter(u, po)
        };
        // implied = [L] ; po ∪ po ; [L], L the LOCK'd RMW events.
        let rmw_dom = p.set_base(SetBase::RmwDomain);
        let rmw_ran = p.set_base(SetBase::RmwRange);
        let locked = p.set_union(rmw_dom, rmw_ran);
        let id_l = p.id_on(locked);
        let implied_pre = p.seq(id_l, po);
        let implied_post = p.seq(po, id_l);
        let mfence = p.base(RelBase::FenceRel(Fence::MFence));
        p.union_all(&[mfence, ppo, implied_pre, implied_post, rfe, fr, co])
    };
    let x86_hb_tm = p.union(x86_hb_base, tfence);
    let x86_axioms = |p: &mut IrPool, hb: RelId, tm: bool| {
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("Order", AxiomHead::Acyclic, hb),
        ];
        if tm {
            let txn_lift = p.stronglift(hb, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
        }
        axioms
    };
    let x86 = ModelAxioms::new("x86", x86_axioms(p, x86_hb_base, false));
    let x86_tm = ModelAxioms::new("x86+TM", x86_axioms(p, x86_hb_tm, true));

    // ---- Fig. 6: Power ± TM -----------------------------------------------
    let lwsync_body = {
        // lwsync \ (W × R): the lightweight barrier does not order W→R.
        let lwsync = p.base(RelBase::FenceRel(Fence::Lwsync));
        let wr = p.cross(writes, reads);
        p.diff(lwsync, wr)
    };
    let sync = p.base(RelBase::FenceRel(Fence::Sync));
    let power_table = |p: &mut IrPool, tm: bool| {
        let fence = if tm {
            p.union_all(&[lwsync_body, sync, tfence])
        } else {
            p.union(lwsync_body, sync)
        };
        let ihb = p.union(dep_order, fence);
        let rfe_q = p.opt(rfe);
        let hb_thread = p.seq_all(&[rfe_q, ihb, rfe_q]);
        let hb = if tm {
            // thb = (rfe ∪ (fre ∪ coe)* ; ihb)* ; (fre ∪ coe)* ; rfe?
            let fre_coe_star = {
                let u = p.union(fre, coe);
                p.star(u)
            };
            let step = {
                let chained = p.seq(fre_coe_star, ihb);
                let u = p.union(rfe, chained);
                p.star(u)
            };
            let thb = p.seq_all(&[step, fre_coe_star, rfe_q]);
            let lifted = p.weaklift(thb, stxn);
            p.union(hb_thread, lifted)
        } else {
            hb_thread
        };
        let hb_star = p.star(hb);
        let efence = p.seq_all(&[rfe_q, fence, rfe_q]);
        let prop1 = p.seq_all(&[id_w, efence, hb_star, id_w]);
        let strong_fence = if tm { p.union(sync, tfence) } else { sync };
        let prop2 = {
            let come_star = p.star(come);
            let efence_star = p.star(efence);
            p.seq_all(&[come_star, efence_star, hb_star, strong_fence, hb_star])
        };
        let mut prop_parts = vec![prop1, prop2];
        if tm {
            // tprop1 = rfe ; stxn ; [W] and tprop2 = stxn ; rfe (§5.2).
            prop_parts.push(p.seq_all(&[rfe, stxn, id_w]));
            prop_parts.push(p.seq(stxn, rfe));
        }
        let prop = p.union_all(&prop_parts);
        let propagation_body = p.union(co, prop);
        let observation_body = p.seq_all(&[fre, prop, hb_star]);
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("Order", AxiomHead::Acyclic, hb),
            p.axiom("Propagation", AxiomHead::Acyclic, propagation_body),
            p.axiom("Observation", AxiomHead::Irreflexive, observation_body),
        ];
        if tm {
            let txn_lift = p.stronglift(hb, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
            axioms.push(p.axiom("TxnCancelsRMW", AxiomHead::Empty, txn_cancels_body));
        }
        axioms
    };
    let power = ModelAxioms::new("Power", power_table(p, false));
    let power_tm = ModelAxioms::new("Power+TM", power_table(p, true));

    // ---- Fig. 8: ARMv8 ± TM -----------------------------------------------
    let armv8_ob_base = {
        // dob is the same dependency fragment as the Power ppo: hash-consing
        // makes that sharing literal.
        let dob = dep_order;
        // aob = rmw ∪ [ran(rmw)] ; rfi ; [Acq ∩ R].
        let acquires = p.set_base(SetBase::Acquires);
        let acq_r = p.set_inter(acquires, reads);
        let id_acq_r = p.id_on(acq_r);
        let aob = {
            let rmw_ran = p.set_base(SetBase::RmwRange);
            let id_rmw_w = p.id_on(rmw_ran);
            let chain = p.seq_all(&[id_rmw_w, rfi, id_acq_r]);
            p.union(rmw, chain)
        };
        // bob: DMB variants plus the one-way acquire/release barriers.
        let bob = {
            let dmb = p.base(RelBase::FenceRel(Fence::Dmb));
            let dmb_ld = {
                let f = p.base(RelBase::FenceRel(Fence::DmbLd));
                p.seq(id_r, f)
            };
            let dmb_st = {
                let f = p.base(RelBase::FenceRel(Fence::DmbSt));
                p.seq_all(&[id_w, f, id_w])
            };
            let releases = p.set_base(SetBase::Releases);
            let rel_w = p.set_inter(releases, writes);
            let id_rel_w = p.id_on(rel_w);
            let acq_first = p.seq(id_acq_r, po);
            let rel_last = p.seq(po, id_rel_w);
            let rel_acq = p.seq_all(&[id_rel_w, po, id_acq_r]);
            p.union_all(&[dmb, dmb_ld, dmb_st, acq_first, rel_last, rel_acq])
        };
        p.union_all(&[come, dob, aob, bob])
    };
    let armv8_ob_tm = p.union(armv8_ob_base, tfence);
    let armv8_axioms = |p: &mut IrPool, ob: RelId, tm: bool| {
        let mut axioms = vec![
            p.axiom("Coherence", AxiomHead::Acyclic, coherence_body),
            p.axiom("Order", AxiomHead::Acyclic, ob),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
        ];
        if tm {
            let txn_lift = p.stronglift(ob, stxn);
            axioms.push(p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body));
            axioms.push(p.axiom("TxnOrder", AxiomHead::Acyclic, txn_lift));
            axioms.push(p.axiom("TxnCancelsRMW", AxiomHead::Empty, txn_cancels_body));
        }
        axioms
    };
    let armv8 = ModelAxioms::new("ARMv8", armv8_axioms(p, armv8_ob_base, false));
    let armv8_tm = ModelAxioms::new("ARMv8+TM", armv8_axioms(p, armv8_ob_tm, true));

    // ---- Fig. 9: C++ ± TM -------------------------------------------------
    let cpp_table = |p: &mut IrPool, tm: bool| {
        let fences = p.set_base(SetBase::Fences);
        let f_acq = p.set_base(SetBase::FencesOf(Fence::FenceAcq));
        let f_rel = p.set_base(SetBase::FencesOf(Fence::FenceRel));
        let f_sc = p.set_base(SetBase::FencesOf(Fence::FenceSc));
        let acquires = p.set_base(SetBase::Acquires);
        let releases = p.set_base(SetBase::Releases);
        let sc_events = p.set_base(SetBase::ScEvents);
        let atomics = p.set_base(SetBase::Atomics);
        let acq_s = {
            let u = p.set_union(acquires, f_acq);
            p.set_union(u, f_sc)
        };
        let rel_s = {
            let u = p.set_union(releases, f_rel);
            p.set_union(u, f_sc)
        };
        let sc_s = p.set_union(sc_events, f_sc);
        // rs = [W] ; poloc? ; [W ∩ Ato] ; (rf ; rmw)*.
        let rs = {
            let w_ato = p.set_inter(writes, atomics);
            let id_w_ato = p.id_on(w_ato);
            let poloc_q = p.opt(poloc);
            let rf_rmw_star = {
                let s = p.seq(rf, rmw);
                p.star(s)
            };
            p.seq_all(&[id_w, poloc_q, id_w_ato, rf_rmw_star])
        };
        // sw = [Rel] ; ([F] ; po)? ; rs ; rf ; [R ∩ Ato] ; (po ; [F])? ; [Acq].
        let sw = {
            let id_rel = p.id_on(rel_s);
            let id_acq = p.id_on(acq_s);
            let id_f = p.id_on(fences);
            let fence_po = {
                let s = p.seq(id_f, po);
                p.opt(s)
            };
            let po_fence = {
                let s = p.seq(po, id_f);
                p.opt(s)
            };
            let r_ato = p.set_inter(reads, atomics);
            let id_r_ato = p.id_on(r_ato);
            p.seq_all(&[id_rel, fence_po, rs, rf, id_r_ato, po_fence, id_acq])
        };
        // hb = (sw ∪ tsw ∪ po)+, tsw = weaklift(ecom, stxn) with TM (§7.2).
        let hb = {
            let mut parts = vec![sw, po];
            if tm {
                let ecom = p.base(RelBase::Ecom);
                parts.push(p.weaklift(ecom, stxn));
            }
            let u = p.union_all(&parts);
            p.plus(u)
        };
        // psc, following RC11.
        let psc = {
            let hb_q = p.opt(hb);
            let sc_fences = p.set_inter(sc_s, fences);
            let id_sc = p.id_on(sc_s);
            let id_f_sc = p.id_on(sc_fences);
            let eco = p.plus(com);
            // scb = po ∪ (po\loc ; hb ; po\loc) ∪ (hb ∩ sloc) ∪ co ∪ fr.
            let po_nl = p.base(RelBase::PoDiffLoc);
            let sloc = p.base(RelBase::Sloc);
            let hb_between = p.seq_all(&[po_nl, hb, po_nl]);
            let hb_loc = p.inter(hb, sloc);
            let scb = p.union_all(&[po, hb_between, hb_loc, co, fr]);
            let left = {
                let s = p.seq(id_f_sc, hb_q);
                p.union(id_sc, s)
            };
            let right = {
                let s = p.seq(hb_q, id_f_sc);
                p.union(id_sc, s)
            };
            let main = p.seq_all(&[left, scb, right]);
            let psc_f = {
                let through_eco = p.seq_all(&[hb, eco, hb]);
                let u = p.union(hb, through_eco);
                p.seq_all(&[id_f_sc, u, id_f_sc])
            };
            p.union(main, psc_f)
        };
        let hb_com_body = {
            let com_star = p.star(com);
            p.seq(hb, com_star)
        };
        let no_thin_air_body = p.union(po, rf);
        vec![
            p.axiom("HbCom", AxiomHead::Irreflexive, hb_com_body),
            p.axiom("RMWIsol", AxiomHead::Empty, rmw_isol_body),
            p.axiom("NoThinAir", AxiomHead::Acyclic, no_thin_air_body),
            p.axiom("SeqCst", AxiomHead::Acyclic, psc),
        ]
    };
    let cpp = ModelAxioms::new("C++", cpp_table(p, false));
    let cpp_tm = ModelAxioms::new("C++(TM)", cpp_table(p, true));

    // ---- §3.3 isolation and §8.3 CROrder ----------------------------------
    let weak_isol_body = p.weaklift(com, stxn);
    let stxnat = p.base(RelBase::Stxnat);
    let strong_isol_atomic_body = p.stronglift(com, stxnat);
    let cr_order_body = p.weaklift(po_com, scr);

    IrCatalog {
        cr_order: p.axiom("CROrder", AxiomHead::Acyclic, cr_order_body),
        weak_isol: p.axiom("WeakIsol", AxiomHead::Acyclic, weak_isol_body),
        strong_isol: p.axiom("StrongIsol", AxiomHead::Acyclic, strong_isol_body),
        strong_isol_atomic: p.axiom(
            "StrongIsolAtomic",
            AxiomHead::Acyclic,
            strong_isol_atomic_body,
        ),
        pool,
        sc,
        tsc,
        x86,
        x86_tm,
        power,
        power_tm,
        armv8,
        armv8_tm,
        cpp,
        cpp_tm,
    }
}

// ---- shared check drivers --------------------------------------------------

/// Checks every axiom of `table` (in declaration order), extracting
/// witnesses, and appends `CROrder` when `cr_order` is set — the full-verdict
/// path behind [`MemoryModel::check_view`](crate::MemoryModel::check_view).
pub(crate) fn check_table(table: &ModelAxioms, cr_order: bool, view: &ExecView<'_>) -> Verdict {
    let cat = catalog();
    let eval = IrEval::new(cat.pool(), view);
    let mut verdict = Verdict::consistent(table.name_cow());
    for axiom in table.axioms() {
        if let Some(witness) = eval.witness(axiom) {
            verdict.push(axiom.name.clone(), Some(witness));
        }
    }
    if cr_order {
        // The retired hand-written check reported CROrder without a witness;
        // the IR evaluator extracts the offending cycle like any other
        // acyclicity axiom.
        if let Some(witness) = eval.witness(cat.cr_order()) {
            verdict.push("CROrder", Some(witness));
        }
    }
    verdict
}

/// True if every axiom of `table` (and `CROrder`, when set) holds — the
/// early-exit path: axioms are tried cheapest first and the sweep stops at
/// the first violation, without extracting witnesses.
pub(crate) fn table_holds(table: &ModelAxioms, cr_order: bool, view: &ExecView<'_>) -> bool {
    let cat = catalog();
    let eval = IrEval::new(cat.pool(), view);
    table.in_cost_order().all(|axiom| eval.holds(axiom))
        && (!cr_order || eval.holds(cat.cr_order()))
}

/// Evaluates a single standalone axiom (isolation, `CROrder`) on a view.
pub(crate) fn axiom_holds(axiom: &Axiom, view: &ExecView<'_>) -> bool {
    IrEval::new(catalog().pool(), view).holds(axiom)
}

// ---- incremental checking ---------------------------------------------------

/// A *stateful* model checker for enumeration sweeps: the shared-catalog
/// front end of [`IncrementalEval`](tm_exec::ir::IncrementalEval).
///
/// Where [`MemoryModel::check_view`](crate::MemoryModel::check_view) builds
/// a fresh evaluator per execution, an `IncrementalChecker` lives for a
/// whole sweep and is told *what changed* between candidates through the
/// [`Delta`]s that `tm_synth::enumerate` threads to its sinks. Axiom
/// bodies whose dependency footprint the delta misses keep their values —
/// and their cached verdicts — across siblings in the enumeration tree.
///
/// # Examples
///
/// ```
/// use tm_exec::catalog;
/// use tm_exec::ir::{Delta, RelBase};
/// use tm_models::ir::IncrementalChecker;
/// use tm_models::Target;
///
/// let mut checker = IncrementalChecker::new();
/// let mut exec = catalog::sb();
/// checker.advance(&exec, &Delta::everything());
/// assert!(checker.is_consistent(&exec, Target::X86));
/// assert!(!checker.is_consistent(&exec, Target::Sc));
///
/// // Wrap both threads in transactions, telling the checker what changed:
/// // only the stxn-dependent axiom bodies are re-evaluated.
/// let mut delta = Delta::new();
/// for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)] {
///     exec.stxn.insert(a, b);
///     delta.add_edge(RelBase::Stxn, a, b);
/// }
/// checker.advance(&exec, &delta);
/// assert!(checker.is_consistent(&exec, Target::X86));
/// assert!(!checker.is_consistent(&exec, Target::X86Tm));
/// ```
pub struct IncrementalChecker {
    eval: tm_exec::ir::IncrementalEval<'static>,
    early_exits: u64,
}

impl Default for IncrementalChecker {
    fn default() -> IncrementalChecker {
        IncrementalChecker::new()
    }
}

impl IncrementalChecker {
    /// A checker over the shared axiom catalog, with every node value
    /// unknown until the first [`advance`](IncrementalChecker::advance).
    pub fn new() -> IncrementalChecker {
        IncrementalChecker {
            eval: tm_exec::ir::IncrementalEval::new(catalog().pool()),
            early_exits: 0,
        }
    }

    /// Absorbs the edits that turned the previous candidate into `exec`.
    /// Call once per candidate, before any query about it.
    pub fn advance(&mut self, exec: &tm_exec::Execution, delta: &tm_exec::ir::Delta) {
        self.eval.apply(exec, delta);
    }

    /// Starts recording undo state for a probe (see
    /// [`IncrementalEval::savepoint`]).
    pub fn savepoint(&mut self) {
        self.eval.savepoint();
    }

    /// Restores the state captured by the active savepoint.
    pub fn rollback(&mut self) {
        self.eval.rollback();
    }

    /// The underlying evaluator's maintenance counters — the parity tests
    /// pin `invalidated` at zero over whole sweeps.
    pub fn stats(&self) -> tm_exec::ir::MaintenanceStats {
        self.eval.stats()
    }

    /// Consistency queries that returned `false` before reaching the last
    /// axiom of the cost order — how often cheapest-axiom-first paid off.
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// True if `exec` satisfies every axiom of `target` — the early-exit
    /// sweep path (cheapest axioms first, cached verdicts reused).
    pub fn is_consistent(&mut self, exec: &tm_exec::Execution, target: Target) -> bool {
        let table = catalog().model(target);
        let eval = &mut self.eval;
        let mut remaining = table.axioms().len();
        for axiom in table.in_cost_order() {
            remaining -= 1;
            if !eval.holds(exec, axiom) {
                if remaining > 0 {
                    self.early_exits += 1;
                }
                return false;
            }
        }
        true
    }

    /// Like [`is_consistent`](IncrementalChecker::is_consistent) with the
    /// §8.3 `CROrder` axiom appended.
    pub fn is_consistent_with_cr_order(
        &mut self,
        exec: &tm_exec::Execution,
        target: Target,
    ) -> bool {
        self.is_consistent(exec, target) && self.eval.holds(exec, catalog().cr_order())
    }

    /// The full verdict of `target` on `exec`, with witnesses — matching
    /// [`MemoryModel::check_view`](crate::MemoryModel::check_view) verdict
    /// for verdict.
    pub fn check(&mut self, exec: &tm_exec::Execution, target: Target) -> Verdict {
        self.check_with_cr_order(exec, target, false)
    }

    /// [`check`](IncrementalChecker::check), optionally appending `CROrder`.
    pub fn check_with_cr_order(
        &mut self,
        exec: &tm_exec::Execution,
        target: Target,
        cr_order: bool,
    ) -> Verdict {
        let cat = catalog();
        let table = cat.model(target);
        let mut verdict = Verdict::consistent(table.name_cow());
        for axiom in table.axioms() {
            if let Some(witness) = self.eval.witness(exec, axiom) {
                verdict.push(axiom.name.clone(), Some(witness));
            }
        }
        if cr_order {
            if let Some(witness) = self.eval.witness(exec, cat.cr_order()) {
                verdict.push("CROrder", Some(witness));
            }
        }
        verdict
    }
}

/// An [`IncrementalChecker`] pinned to one [`Target`] (optionally with the
/// §8.3 `CROrder` axiom appended) — the [`DeltaChecker`](crate::DeltaChecker)
/// the built-in models hand to generic incremental pipelines such as
/// `tm_synth::synthesise_suites`.
pub struct TargetChecker {
    checker: IncrementalChecker,
    target: Target,
    cr_order: bool,
}

impl TargetChecker {
    /// A delta-driven checker for `target`, appending `CROrder` when asked.
    pub fn new(target: Target, cr_order: bool) -> TargetChecker {
        TargetChecker {
            checker: IncrementalChecker::new(),
            target,
            cr_order,
        }
    }
}

impl crate::DeltaChecker for TargetChecker {
    fn advance(&mut self, exec: &tm_exec::Execution, delta: &Delta) {
        self.checker.advance(exec, delta);
    }

    fn is_consistent(&mut self, exec: &tm_exec::Execution) -> bool {
        if self.cr_order {
            self.checker.is_consistent_with_cr_order(exec, self.target)
        } else {
            self.checker.is_consistent(exec, self.target)
        }
    }

    fn savepoint(&mut self) {
        self.checker.savepoint();
    }

    fn rollback(&mut self) {
        self.checker.rollback();
    }

    fn telemetry(&self) -> Option<crate::CheckerTelemetry> {
        Some(crate::CheckerTelemetry {
            stats: self.checker.stats(),
            early_exits: self.checker.early_exits(),
        })
    }
}

// ---- user-defined models ---------------------------------------------------

/// A memory model defined entirely by an axiom table.
///
/// The table is built once, in a private pool, by the closure handed to
/// [`IrModel::new`]; checking evaluates it with the same engine the built-in
/// models use (per-execution common-subexpression memoization included). See
/// the module docs for a worked example.
#[derive(Debug)]
pub struct IrModel {
    pool: IrPool,
    table: ModelAxioms,
}

impl IrModel {
    /// Builds a model named `name` from the axioms `define` interns into the
    /// given pool.
    pub fn new(
        name: impl Into<Cow<'static, str>>,
        define: impl FnOnce(&mut IrPool) -> Vec<Axiom>,
    ) -> IrModel {
        let mut pool = IrPool::new();
        let axioms = define(&mut pool);
        IrModel {
            pool,
            table: ModelAxioms::new(name, axioms),
        }
    }

    /// Packages a pool and a pre-built axiom table as a model — the entry
    /// point for runtime loaders (the `tm-cat` elaborator) whose
    /// construction can fail halfway and therefore cannot run inside the
    /// infallible [`IrModel::new`] closure.
    pub fn from_parts(
        name: impl Into<Cow<'static, str>>,
        pool: IrPool,
        axioms: Vec<Axiom>,
    ) -> IrModel {
        IrModel {
            pool,
            table: ModelAxioms::new(name, axioms),
        }
    }

    /// The model's axiom table.
    pub fn table(&self) -> &ModelAxioms {
        &self.table
    }

    /// The pool the table's bodies are interned in.
    pub fn pool(&self) -> &IrPool {
        &self.pool
    }

    /// A stateful delta-driven checker for this model — the analogue of
    /// [`IncrementalChecker`] over this model's private pool, for use with
    /// `tm_synth::enumerate`.
    pub fn incremental(&self) -> IncrementalModelChecker<'_> {
        IncrementalModelChecker {
            eval: IncrementalEval::new(&self.pool),
            table: &self.table,
            early_exits: 0,
        }
    }
}

impl crate::MemoryModel for IrModel {
    fn name(&self) -> &str {
        self.table.name()
    }

    fn axioms(&self) -> Vec<&str> {
        self.table
            .axioms()
            .iter()
            .map(|a| a.name.as_ref())
            .collect()
    }

    fn check_view(&self, view: &ExecView<'_>) -> Verdict {
        let eval = IrEval::new(&self.pool, view);
        let mut verdict = Verdict::consistent(self.table.name_cow());
        for axiom in self.table.axioms() {
            if let Some(witness) = eval.witness(axiom) {
                verdict.push(axiom.name.clone(), Some(witness));
            }
        }
        verdict
    }

    fn is_consistent_view(&self, view: &ExecView<'_>) -> bool {
        let eval = IrEval::new(&self.pool, view);
        self.table.in_cost_order().all(|axiom| eval.holds(axiom))
    }

    fn incremental_checker(&self) -> Option<Box<dyn crate::DeltaChecker + '_>> {
        Some(Box::new(self.incremental()))
    }
}

/// A stateful, delta-driven checker for one [`IrModel`]: the user-model
/// sibling of [`IncrementalChecker`], so models loaded at runtime (e.g. from
/// `.cat` text) plug into the incremental enumeration hot path exactly like
/// the built-in catalog does.
///
/// Borrows the model, so build it inside the per-worker `make_sink` closure
/// of `tm_synth::enumerate` (scoped threads keep the borrow legal).
pub struct IncrementalModelChecker<'m> {
    eval: IncrementalEval<'m>,
    table: &'m ModelAxioms,
    early_exits: u64,
}

impl<'m> IncrementalModelChecker<'m> {
    /// Absorbs the edits that turned the previous candidate into `exec`.
    pub fn advance(&mut self, exec: &tm_exec::Execution, delta: &Delta) {
        self.eval.apply(exec, delta);
    }

    /// Starts recording undo state for a probe.
    pub fn savepoint(&mut self) {
        self.eval.savepoint();
    }

    /// Restores the state captured by the active savepoint.
    pub fn rollback(&mut self) {
        self.eval.rollback();
    }

    /// The underlying evaluator's maintenance counters.
    pub fn stats(&self) -> tm_exec::ir::MaintenanceStats {
        self.eval.stats()
    }

    /// Consistency queries that returned `false` before the last axiom of
    /// the cost order.
    pub fn early_exits(&self) -> u64 {
        self.early_exits
    }

    /// True if `exec` satisfies every axiom — early-exit, cached verdicts.
    pub fn is_consistent(&mut self, exec: &tm_exec::Execution) -> bool {
        let eval = &mut self.eval;
        let mut remaining = self.table.axioms().len();
        for axiom in self.table.in_cost_order() {
            remaining -= 1;
            if !eval.holds(exec, axiom) {
                if remaining > 0 {
                    self.early_exits += 1;
                }
                return false;
            }
        }
        true
    }

    /// The full verdict with witnesses, matching
    /// [`MemoryModel::check`](crate::MemoryModel::check) on the same model.
    pub fn check(&mut self, exec: &tm_exec::Execution) -> Verdict {
        let mut verdict = Verdict::consistent(self.table.name_cow());
        for axiom in self.table.axioms() {
            if let Some(witness) = self.eval.witness(exec, axiom) {
                verdict.push(axiom.name.clone(), Some(witness));
            }
        }
        verdict
    }
}

impl crate::DeltaChecker for IncrementalModelChecker<'_> {
    fn advance(&mut self, exec: &tm_exec::Execution, delta: &Delta) {
        IncrementalModelChecker::advance(self, exec, delta);
    }

    fn is_consistent(&mut self, exec: &tm_exec::Execution) -> bool {
        IncrementalModelChecker::is_consistent(self, exec)
    }

    fn savepoint(&mut self) {
        IncrementalModelChecker::savepoint(self);
    }

    fn rollback(&mut self) {
        IncrementalModelChecker::rollback(self);
    }

    fn telemetry(&self) -> Option<crate::CheckerTelemetry> {
        Some(crate::CheckerTelemetry {
            stats: self.stats(),
            early_exits: self.early_exits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::catalog as execs;
    use tm_exec::ir::txn_polarity;

    #[test]
    fn catalog_tables_carry_the_documented_axioms() {
        let cat = catalog();
        for target in Target::ALL {
            let table = cat.model(target);
            let names: Vec<&str> = table.axioms().iter().map(|a| a.name.as_ref()).collect();
            assert_eq!(names, target.model().axioms(), "{target}");
            assert!(!table.name().is_empty());
            // The cost order is a permutation of the declaration order.
            assert_eq!(table.in_cost_order().count(), table.axioms().len());
        }
    }

    #[test]
    fn shared_axiom_bodies_are_one_node() {
        let cat = catalog();
        let body_of = |target: Target, name: &str| {
            cat.model(target)
                .axioms()
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("{target} lacks {name}"))
                .body
        };
        // Coherence and RMWIsol are shared across the hardware models.
        for name in ["Coherence", "RMWIsol"] {
            let x86 = body_of(Target::X86Tm, name);
            assert_eq!(x86, body_of(Target::PowerTm, name));
            assert_eq!(x86, body_of(Target::Armv8Tm, name));
        }
        // StrongIsol is the same node for every TM model and for the
        // standalone isolation axiom.
        let strong = body_of(Target::X86Tm, "StrongIsol");
        assert_eq!(strong, body_of(Target::PowerTm, "StrongIsol"));
        assert_eq!(strong, body_of(Target::Armv8Tm, "StrongIsol"));
        assert_eq!(strong, cat.strong_isol().body);
        // TxnCancelsRMW is shared between Power and ARMv8.
        assert_eq!(
            body_of(Target::PowerTm, "TxnCancelsRMW"),
            body_of(Target::Armv8Tm, "TxnCancelsRMW")
        );
        // The baseline Order body is a strict subexpression of the TM one
        // (hb_tm = hb_base ∪ tfence), so the two variants share work.
        assert_ne!(
            body_of(Target::X86, "Order"),
            body_of(Target::X86Tm, "Order")
        );
    }

    #[test]
    fn baseline_tables_do_not_mention_transactions() {
        let cat = catalog();
        for target in [
            Target::Sc,
            Target::X86,
            Target::Power,
            Target::Armv8,
            Target::Cpp,
        ] {
            for axiom in cat.model(target).axioms() {
                assert_eq!(
                    txn_polarity(cat.pool(), axiom.body),
                    tm_exec::ir::Polarity::Constant,
                    "{target}/{} should be transaction-free",
                    axiom.name
                );
            }
        }
    }

    #[test]
    fn ir_model_doc_example_behaviour() {
        let model = IrModel::new("CoherenceOnly", |p| {
            let poloc = p.base(RelBase::Poloc);
            let com = p.base(RelBase::Com);
            let body = p.union(poloc, com);
            vec![p.axiom("Coherence", AxiomHead::Acyclic, body)]
        });
        use crate::MemoryModel;
        assert_eq!(model.axioms(), vec!["Coherence"]);
        assert!(model.is_consistent(&execs::sb()));
        let verdict = model.check(&execs::fig1());
        assert!(verdict.violates("Coherence"), "{verdict}");
    }
}
