//! Concrete operation semantics for functional execution.
//!
//! The DFG IR carries no constants or addresses — it is a scheduling IR.
//! For *equivalence checking* any deterministic, input-order-sensitive
//! interpretation will do: if the golden interpreter and the cycle-level
//! machine agree on every store under these semantics for random inputs,
//! the mapping/transform moved every value to the right place at the
//! right time. The semantics below are wrapping-integer and deliberately
//! asymmetric in their operands so that swapped or misrouted operands
//! change the result.

use crate::error::ExecError;
use cgra_dfg::graph::{NodeId, OpKind};

/// The machine word.
pub type Word = i64;

/// Evaluate node `node`, an `op`, over its ordered inputs.
///
/// * `Load` with no inputs is a stream input and is *not* handled here
///   (the executor feeds it); a `Load` with an input is a spill reload —
///   identity.
/// * `Store` passes its input through (the executor records it).
/// * `Const` evaluates to a per-node constant supplied by the executor.
///
/// # Errors
/// [`ExecError::MissingOperand`] when `op` reads an operand `inputs` does
/// not have. DFG validation does not check arity, so a parsed kernel can
/// hold, say, a `sub` with no producer.
///
/// # Panics
/// Panics if called for a `Const`: the executor supplies constants.
pub fn eval(node: NodeId, op: OpKind, inputs: &[Word]) -> Result<Word, ExecError> {
    let a = |i: usize| {
        inputs.get(i).copied().ok_or(ExecError::MissingOperand {
            node: node.0,
            op,
            operand: i,
        })
    };
    Ok(match op {
        OpKind::Load | OpKind::Store | OpKind::Route => a(0)?,
        OpKind::Const => unreachable!("constants are supplied by the executor"),
        OpKind::Add => inputs.iter().fold(0i64, |x, &y| x.wrapping_add(y)),
        OpKind::Sub => {
            if inputs.len() == 1 {
                0i64.wrapping_sub(a(0)?)
            } else {
                a(0)?.wrapping_sub(a(1)?)
            }
        }
        OpKind::Mul => inputs.iter().fold(1i64, |x, &y| x.wrapping_mul(y)),
        OpKind::Shift => a(0)?.wrapping_shl(1),
        OpKind::Logic => inputs.iter().fold(0i64, |x, &y| x ^ y),
        OpKind::Cmp => {
            if inputs.len() >= 2 {
                (a(0)? < a(1)?) as Word
            } else {
                (a(0)? < 0) as Word
            }
        }
        OpKind::Select => {
            // Predicate-sensitive and operand-order-sensitive. A 1-input
            // select (random DFGs generate them) degenerates to a
            // self-conditional clamp.
            let val = if inputs.len() >= 2 { a(1)? } else { a(0)? };
            if a(0)? & 1 != 0 {
                val
            } else {
                val.wrapping_neg().wrapping_add(1)
            }
        }
        OpKind::Abs => a(0)?.wrapping_abs(),
    })
}

/// The constant a `Const` node evaluates to: derived from its node index
/// so distinct constants differ (and misrouted constants are caught).
pub fn const_value(node_index: usize) -> Word {
    (node_index as Word)
        .wrapping_mul(2654435761)
        .wrapping_add(17)
        % 1009
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(op: OpKind, inputs: &[Word]) -> Word {
        eval(NodeId(0), op, inputs).unwrap()
    }

    #[test]
    fn missing_operand_is_a_typed_error() {
        for op in [
            OpKind::Load,
            OpKind::Store,
            OpKind::Route,
            OpKind::Sub,
            OpKind::Shift,
            OpKind::Cmp,
            OpKind::Select,
            OpKind::Abs,
        ] {
            assert_eq!(
                eval(NodeId(7), op, &[]),
                Err(ExecError::MissingOperand {
                    node: 7,
                    op,
                    operand: 0
                }),
                "{op:?}"
            );
        }
        // Folding ops read no fixed operand, so zero inputs is fine.
        assert_eq!(eval(NodeId(0), OpKind::Add, &[]), Ok(0));
        assert_eq!(eval(NodeId(0), OpKind::Mul, &[]), Ok(1));
    }

    #[test]
    fn sub_is_order_sensitive() {
        assert_ne!(ev(OpKind::Sub, &[5, 3]), ev(OpKind::Sub, &[3, 5]));
    }

    #[test]
    fn add_mul_fold_all_inputs() {
        assert_eq!(ev(OpKind::Add, &[1, 2, 3]), 6);
        assert_eq!(ev(OpKind::Mul, &[2, 3, 4]), 24);
    }

    #[test]
    fn select_depends_on_predicate() {
        assert_ne!(ev(OpKind::Select, &[0, 9]), ev(OpKind::Select, &[1, 9]));
    }

    #[test]
    fn route_and_store_pass_through() {
        assert_eq!(ev(OpKind::Route, &[42]), 42);
        assert_eq!(ev(OpKind::Store, &[42]), 42);
    }

    #[test]
    fn consts_differ_per_node() {
        assert_ne!(const_value(0), const_value(1));
    }

    #[test]
    fn wrapping_does_not_panic() {
        ev(OpKind::Mul, &[i64::MAX, i64::MAX]);
        ev(OpKind::Add, &[i64::MIN, -1]);
        ev(OpKind::Abs, &[i64::MIN]);
    }
}
