//! Dead store elimination (DSE) — the *backward* analysis of Fig. 8b
//! (App. D).
//!
//! At every program point the analysis assigns to each shared location one
//! of
//!
//! * `x ↦ ◦` — `x` is overwritten in the future, with no acquire read or
//!   read from `x` in between;
//! * `x ↦ •` — overwritten in the future; an acquire may intervene but no
//!   release or read from `x`;
//! * `x ↦ ⊤` — anything else,
//!
//! ordered `◦ ⊑ • ⊑ ⊤`. A store `x^na := e` whose *post*-token is `◦` or
//! `•` is rewritten to `skip`.
//!
//! Soundness of the `•` case requires the *advanced* refinement of §3
//! (Example 3.5): eliminating a store across a release write changes the
//! memory recorded on the release label, which only commitment sets can
//! absorb. The validator therefore checks DSE output with `⊑_w`.

use std::collections::BTreeMap;

use seqwm_lang::{Loc, Program, Stmt, WriteMode};

use crate::pipeline::PassStats;
use crate::slf::{is_acquire, is_release};

/// A DSE abstract token (Fig. 8b). `⊤` is absence from the map.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Token {
    /// `◦`: overwritten before any acquire or read of the location.
    Circle,
    /// `•`: overwritten; an acquire may intervene, a release may not.
    Bullet,
}

/// The backward abstract state: absent locations are `⊤`.
pub type State = BTreeMap<Loc, Token>;

/// Join (pointwise lub, toward `⊤`).
fn join(a: &State, b: &State) -> State {
    let mut out = State::new();
    for (x, ta) in a {
        if let Some(tb) = b.get(x) {
            let j = match (ta, tb) {
                (Token::Circle, Token::Circle) => Token::Circle,
                _ => Token::Bullet,
            };
            out.insert(*x, j);
        }
    }
    out
}

/// The backward transfer function `TB` of Fig. 8b, applied *after* the
/// statement's own rewriting decision.
fn transfer_backward(s: &Stmt, state: &mut State) {
    // Backward through an acquire: ◦ → •.
    let acquire = |state: &mut State| {
        for t in state.values_mut() {
            *t = Token::Bullet;
        }
    };
    // SEQ steps an RMW as its acquire read then its release write, but a
    // composite fence as its release part then its acquire part
    // (`RelFence`, then `Acq`). Backward, the later part comes first.
    let fence = matches!(s, Stmt::Fence(_));
    if fence && is_acquire(s) {
        acquire(state);
    }
    // Backward through a release: • → ⊤ (a release–acquire pair is
    // complete when moving further back).
    if is_release(s) {
        state.retain(|_, t| *t == Token::Circle);
    }
    if !fence && is_acquire(s) {
        acquire(state);
    }
    match s {
        // A store to x: before it, x is definitely overwritten.
        Stmt::Store(x, WriteMode::Na, _) => {
            state.insert(*x, Token::Circle);
        }
        Stmt::Store(x, _, _) | Stmt::Cas { loc: x, .. } | Stmt::Fadd { loc: x, .. } => {
            // Atomic writes overwrite too, but conservatively reset (the
            // pass only targets non-atomic stores; RMWs also read).
            state.remove(x);
        }
        // A read from x: its value is observed — not dead.
        Stmt::Load(_, x, _) => {
            state.remove(x);
        }
        // `print`/`return` observe registers only; `abort` is UB (anything
        // before it could be considered dead, but we stay conservative).
        _ => {}
    }
}

/// The DSE pass.
pub struct DeadStoreElimination;

impl DeadStoreElimination {
    /// Runs the pass on a whole program.
    pub fn run(prog: &Program) -> (Program, PassStats) {
        let mut stats = PassStats::new("dse");
        let mut state = State::new(); // ⊤ everywhere at program exit
        let body = rewrite(&prog.body, &mut state, &mut stats);
        (Program::new(body), stats)
    }
}

/// Backward rewriting: `state` is the abstract state *after* `s` on entry
/// and is updated to the state *before* `s` on exit.
fn rewrite(s: &Stmt, state: &mut State, stats: &mut PassStats) -> Stmt {
    match s {
        Stmt::Seq(a, b) => {
            // Backward: process b first.
            let b2 = rewrite(b, state, stats);
            let a2 = rewrite(a, state, stats);
            Stmt::seq(a2, b2)
        }
        Stmt::If(c, a, b) => {
            let mut sa = state.clone();
            let mut sb = state.clone();
            let a2 = rewrite(a, &mut sa, stats);
            let b2 = rewrite(b, &mut sb, stats);
            *state = join(&sa, &sb);
            // The condition itself reads only registers.
            Stmt::If(c.clone(), Box::new(a2), Box::new(b2))
        }
        Stmt::While(c, body) => {
            // Backward fixpoint: the state at the loop head must be
            // invariant under (exit ⊔ one backward body pass).
            let exit = state.clone();
            let mut head = exit.clone();
            let mut iterations = 0;
            loop {
                iterations += 1;
                stats.note_iterations(iterations);
                let mut into_body = head.clone();
                let mut throwaway = PassStats::new("dse");
                let _ = rewrite(body, &mut into_body, &mut throwaway);
                let next = join(&exit, &into_body);
                if next == head {
                    break;
                }
                head = next;
                assert!(
                    iterations <= 8,
                    "DSE loop analysis failed to stabilize (paper bound: 3)"
                );
            }
            let mut body_state = head.clone();
            let body2 = rewrite(body, &mut body_state, stats);
            *state = head;
            Stmt::While(c.clone(), Box::new(body2))
        }
        // The rewrite: a dead non-atomic store becomes skip. Stores whose
        // expression may fault (division) are kept — eliminating them
        // would be sound (the source's UB matches everything) but we keep
        // observable faults for debuggability.
        Stmt::Store(x, WriteMode::Na, e) => {
            let dead = matches!(state.get(x), Some(Token::Circle | Token::Bullet));
            let faulting = expr_may_fault(e);
            if dead && !faulting {
                stats.rewrites += 1;
                // The store disappears; backward state unchanged (skip).
                Stmt::Skip
            } else {
                let out = s.clone();
                transfer_backward(&out, state);
                out
            }
        }
        leaf => {
            let out = leaf.clone();
            transfer_backward(&out, state);
            out
        }
    }
}

fn expr_may_fault(e: &seqwm_lang::Expr) -> bool {
    use seqwm_lang::expr::{BinOp, Expr};
    match e {
        Expr::Const(_) | Expr::Reg(_) => false,
        Expr::Un(_, a) => expr_may_fault(a),
        Expr::Bin(op, a, b) => {
            matches!(op, BinOp::Div | BinOp::Rem) || expr_may_fault(a) || expr_may_fault(b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqwm_lang::parser::parse_program;

    fn run(src: &str) -> (String, PassStats) {
        let p = parse_program(src).unwrap();
        let (out, stats) = DeadStoreElimination::run(&p);
        (out.to_string(), stats)
    }

    #[test]
    fn overwritten_store_eliminated() {
        // Example 2.6 (i): x := v ; x := v'  {  x := v'.
        let (out, stats) = run("store[na](d1x, 1); store[na](d1x, 2);");
        assert!(!out.contains("store[na](d1x, 1);"), "{out}");
        assert!(out.contains("store[na](d1x, 2);"), "{out}");
        assert_eq!(stats.rewrites, 1);
    }

    #[test]
    fn read_in_between_blocks() {
        let (out, stats) =
            run("store[na](d2x, 1); a := load[na](d2x); store[na](d2x, 2); return a;");
        assert!(out.contains("store[na](d2x, 1);"), "{out}");
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn dse_across_relaxed_and_acquire() {
        // Example 3.5 with α ∈ {rlx read, rlx write, acq read}: still dead.
        for alpha in [
            "b := load[rlx](d3y);",
            "store[rlx](d3y, 5);",
            "b := load[acq](d3y);",
        ] {
            let (out, stats) = run(&format!("store[na](d3x, 1); {alpha} store[na](d3x, 2);"));
            assert!(!out.contains("store[na](d3x, 1);"), "α={alpha}: {out}");
            assert_eq!(stats.rewrites, 1, "α = {alpha}");
        }
    }

    #[test]
    fn dse_across_release_write() {
        // Example 3.5 with α = release write — needs the • token (and the
        // advanced refinement for validation).
        let (out, stats) = run("store[na](d4x, 1); store[rel](d4y, 5); store[na](d4x, 2);");
        assert!(!out.contains("store[na](d4x, 1);"), "{out}");
        assert_eq!(stats.rewrites, 1);
    }

    #[test]
    fn release_acquire_pair_blocks() {
        // A full release–acquire pair between the stores: not dead. A
        // fence that is both release and acquire is such a pair.
        for pair in [
            "store[rel](d5y, 1); a := load[acq](d5z);",
            "fence[acqrel];",
            "fence[sc];",
        ] {
            let (out, stats) = run(&format!("store[na](d5x, 1); {pair} store[na](d5x, 2);"));
            assert!(out.contains("store[na](d5x, 1);"), "{pair}: {out}");
            assert_eq!(stats.rewrites, 0, "{pair}");
        }
    }

    #[test]
    fn branch_join() {
        // Overwritten on both branches → dead.
        let (out, _) = run("store[na](d6x, 1);
             l := load[rlx](d6f);
             if (l == 0) { store[na](d6x, 2); } else { store[na](d6x, 3); }");
        assert!(!out.contains("store[na](d6x, 1);"), "{out}");
        // Overwritten on one branch only → kept.
        let (out, _) = run("store[na](d7x, 1);
             l := load[rlx](d7f);
             if (l == 0) { store[na](d7x, 2); } else { skip; }");
        assert!(out.contains("store[na](d7x, 1);"), "{out}");
    }

    #[test]
    fn store_before_loop_that_overwrites() {
        let (out, stats) = run("store[na](d8x, 1);
             while (i < 3) { store[na](d8x, i); i := i + 1; }");
        // The loop may execute zero times → the pre-loop store is NOT dead.
        assert!(out.contains("store[na](d8x, 1);"), "{out}");
        assert!(stats.max_fixpoint_iterations <= 3);
    }

    #[test]
    fn consecutive_overwrites_in_loop_body() {
        let (out, stats) =
            run("while (i < 3) { store[na](d9x, 1); store[na](d9x, 2); i := i + 1; }");
        assert!(!out.contains("store[na](d9x, 1);"), "{out}");
        assert_eq!(stats.rewrites, 1);
    }

    #[test]
    fn faulting_store_expression_is_kept() {
        let (out, stats) = run("store[na](dfx, 1 / d); store[na](dfx, 2);");
        assert!(out.contains("store[na](dfx, (1 / d));"), "{out}");
        assert_eq!(stats.rewrites, 0);
    }

    #[test]
    fn last_store_never_dead() {
        let (out, stats) = run("store[na](dlx, 1);");
        assert!(out.contains("store[na](dlx, 1);"), "{out}");
        assert_eq!(stats.rewrites, 0);
    }
}
