//! A small textual format for loop-kernel DFGs, for the `cgra-mt` CLI.
//!
//! ```text
//! # comments start with '#'
//! kernel dotprod
//! node a   load
//! node b   load
//! node m   mul
//! node acc add
//! node out store
//! edge a m
//! edge b m
//! edge m acc
//! edge acc out
//! carried acc acc 1      # loop-carried, distance 1
//! ```
//!
//! Ops: `load store add sub mul shift logic cmp select abs const route`.

use cgra_dfg::graph::{Dfg, NodeId, OpKind};
use cgra_dfg::DfgBuilder;
use std::collections::HashMap;

/// A parse failure, with its line number (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn parse_op(s: &str) -> Option<OpKind> {
    Some(match s {
        "load" | "ld" => OpKind::Load,
        "store" | "st" => OpKind::Store,
        "add" => OpKind::Add,
        "sub" => OpKind::Sub,
        "mul" => OpKind::Mul,
        "shift" | "shl" => OpKind::Shift,
        "logic" | "xor" | "and" | "or" => OpKind::Logic,
        "cmp" => OpKind::Cmp,
        "select" | "sel" => OpKind::Select,
        "abs" => OpKind::Abs,
        "const" | "cst" => OpKind::Const,
        "route" | "rt" => OpKind::Route,
        _ => return None,
    })
}

/// Parse the kernel text format into a validated [`Dfg`].
pub fn parse(text: &str) -> Result<Dfg, ParseError> {
    let mut name = String::from("kernel");
    let mut builder: Option<DfgBuilder> = None;
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    let mut pending: Vec<(usize, String, String, u32)> = Vec::new();

    let err = |line: usize, message: String| ParseError { line, message };

    for (ln, raw) in text.lines().enumerate() {
        let line = ln + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let keyword = parts.next().expect("non-empty line has a token");
        match keyword {
            "kernel" | "name" => {
                name = parts
                    .next()
                    .ok_or_else(|| err(line, "missing kernel name".into()))?
                    .to_string();
                builder.get_or_insert_with(|| DfgBuilder::new(name.clone()));
            }
            "node" => {
                let b = builder.get_or_insert_with(|| DfgBuilder::new(name.clone()));
                let id = parts
                    .next()
                    .ok_or_else(|| err(line, "node needs a name".into()))?;
                let op_s = parts
                    .next()
                    .ok_or_else(|| err(line, format!("node {id} needs an op")))?;
                let op = parse_op(op_s).ok_or_else(|| err(line, format!("unknown op '{op_s}'")))?;
                if ids.contains_key(id) {
                    return Err(err(line, format!("duplicate node '{id}'")));
                }
                ids.insert(id.to_string(), b.labeled(op, id));
            }
            "edge" | "carried" => {
                let src = parts
                    .next()
                    .ok_or_else(|| err(line, "edge needs a source".into()))?;
                let dst = parts
                    .next()
                    .ok_or_else(|| err(line, "edge needs a destination".into()))?;
                let dist: u32 = match parts.next() {
                    Some(d) => d
                        .parse()
                        .map_err(|_| err(line, format!("bad distance '{d}'")))?,
                    None if keyword == "carried" => 1,
                    None => 0,
                };
                if keyword == "carried" && dist == 0 {
                    return Err(err(line, "carried edges need distance >= 1".into()));
                }
                pending.push((line, src.to_string(), dst.to_string(), dist));
            }
            other => return Err(err(line, format!("unknown keyword '{other}'"))),
        }
        if parts.next().is_some() && keyword == "node" {
            return Err(err(line, "trailing tokens".into()));
        }
    }

    let mut b = builder.ok_or_else(|| err(0, "empty kernel description".into()))?;
    for (line, src, dst, dist) in pending {
        let s = *ids
            .get(&src)
            .ok_or_else(|| err(line, format!("unknown node '{src}'")))?;
        let d = *ids
            .get(&dst)
            .ok_or_else(|| err(line, format!("unknown node '{dst}'")))?;
        if dist == 0 {
            b.edge(s, d);
        } else {
            b.carried_edge(s, d, dist);
        }
    }
    b.build()
        .map_err(|e| err(0, format!("invalid kernel: {e}")))
}

/// Resolve a kernel argument: `builtin:<name>` for the benchmark suite, a
/// path otherwise.
pub fn load(arg: &str) -> Result<Dfg, String> {
    if let Some(name) = arg.strip_prefix("builtin:") {
        return cgra_dfg::kernels::by_name(name).ok_or_else(|| {
            format!(
                "unknown builtin '{name}'; available: {}",
                cgra_dfg::kernels::NAMES.join(", ")
            )
        });
    }
    let text = std::fs::read_to_string(arg).map_err(|e| format!("{arg}: {e}"))?;
    parse(&text).map_err(|e| format!("{arg}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOTPROD: &str = "
kernel dotprod
node a   load
node b   load
node m   mul
node acc add
node out store
edge a m
edge b m
edge m acc
edge acc out
carried acc acc 1
";

    #[test]
    fn parses_dotprod() {
        let dfg = parse(DOTPROD).unwrap();
        assert_eq!(dfg.name, "dotprod");
        assert_eq!(dfg.num_nodes(), 5);
        assert_eq!(dfg.num_edges(), 5);
        assert!(dfg.has_recurrence());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let dfg =
            parse("# hi\n\nkernel t\nnode x load # inline\nnode y store\nedge x y\n").unwrap();
        assert_eq!(dfg.num_nodes(), 2);
    }

    #[test]
    fn unknown_op_is_an_error() {
        let e = parse("kernel t\nnode x fancyop\n").unwrap_err();
        assert!(e.message.contains("unknown op"));
        assert_eq!(e.line, 2);
    }

    #[test]
    fn unknown_node_in_edge() {
        let e = parse("kernel t\nnode x load\nedge x ghost\n").unwrap_err();
        assert!(e.message.contains("ghost"));
    }

    #[test]
    fn duplicate_node_rejected() {
        let e = parse("kernel t\nnode x load\nnode x add\n").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn zero_distance_cycle_rejected() {
        let e = parse("kernel t\nnode a add\nnode b add\nedge a b\nedge b a\n").unwrap_err();
        assert!(e.message.contains("invalid kernel"));
    }

    #[test]
    fn builtin_loading() {
        assert!(load("builtin:mpeg2").is_ok());
        assert!(load("builtin:nope").is_err());
    }

    /// A `sub` with no producer parses and maps (arity is not part of
    /// DFG validation), and both executors reject it with a typed error
    /// naming the node, the op and the operand.
    #[test]
    fn operandless_op_is_a_typed_exec_error() {
        use cgra_exec::ExecError;
        use cgra_mapper::{map_baseline, MapOptions};
        let dfg = parse("node x sub\nnode out store\nedge x out\n").unwrap();
        let err = ExecError::MissingOperand {
            node: 0,
            op: OpKind::Sub,
            operand: 0,
        };
        assert_eq!(err.to_string(), "n0 (Sub) has no operand 0");
        let want = Err(err);
        let inputs = cgra_exec::InputStreams::random(&dfg, 3, 1);
        assert_eq!(cgra_exec::interpret(&dfg, &inputs, 3), want);
        let cgra = cgra_arch::CgraConfig::square(4);
        let mapped = map_baseline(&dfg, &cgra, &MapOptions::default()).unwrap();
        let out = cgra_exec::execute(&mapped, &cgra, &inputs, 3);
        assert_eq!(out, want);
    }

    #[test]
    fn parsed_kernel_maps_and_executes() {
        use cgra_mapper::{map_constrained, MapOptions};
        let dfg = parse(DOTPROD).unwrap();
        let cgra = cgra_arch::CgraConfig::square(4);
        let mapped = map_constrained(&dfg, &cgra, &MapOptions::default()).unwrap();
        let inputs = cgra_exec::InputStreams::random(&dfg, 6, 1);
        let golden = cgra_exec::interpret(&dfg, &inputs, 6).unwrap();
        let out = cgra_exec::execute(&mapped, &cgra, &inputs, 6).unwrap();
        for (store, values) in &golden {
            assert_eq!(out.get(store), Some(values));
        }
    }
}
