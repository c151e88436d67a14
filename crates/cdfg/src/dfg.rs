//! Operation nodes (`Vo` in the paper) and the per-block data-flow view.

use crate::cdfg::{BlockId, Cdfg};
use crate::op::Opcode;
use crate::value::{SymbolId, Value, ValueId, ValueKind};
use std::fmt;

/// Identifier of an operation node. Ids are global to one [`Cdfg`] (the
/// arena lives on the CDFG); each op belongs to exactly one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifier of a memory alias class (e.g. one source array). Memory
/// operations in different classes are independent; within one class the
/// usual load/store ordering is enforced by
/// [`crate::analysis::order_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AliasClass(pub u32);

impl fmt::Display for AliasClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mem#{}", self.0)
    }
}

/// An operation node of a block's data-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Identity.
    pub id: OpId,
    /// Owning basic block.
    pub block: BlockId,
    /// The opcode.
    pub opcode: Opcode,
    /// Value operands, in positional order (`opcode.arity()` of them).
    pub args: Vec<ValueId>,
    /// Result data node, when `opcode.has_result()`.
    pub result: Option<ValueId>,
    /// Symbol variable updated by this op's result at block exit, if any.
    pub writes_symbol: Option<SymbolId>,
    /// Alias class for memory operations (`None` for non-memory ops).
    pub alias: Option<AliasClass>,
}

/// Immutable per-block data-flow view: the bipartite graph
/// `b = (Vd, Vo, E)` of Section III-A.
///
/// Obtained from [`Cdfg::dfg`]. Operations are stored in program order
/// (which the interpreter executes and analyses treat as the sequential
/// order for memory dependencies).
#[derive(Debug, Clone, Copy)]
pub struct Dfg<'a> {
    cdfg: &'a Cdfg,
    block: BlockId,
}

impl<'a> Dfg<'a> {
    pub(crate) fn new(cdfg: &'a Cdfg, block: BlockId) -> Self {
        Dfg { cdfg, block }
    }

    /// The block this view describes.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// Operation ids in program order.
    pub fn op_ids(&self) -> &'a [OpId] {
        &self.cdfg.block(self.block).ops
    }

    /// Number of operation nodes (`n(Vo)` in Section III-C).
    pub fn num_ops(&self) -> usize {
        self.op_ids().len()
    }

    /// Operations in program order.
    pub fn ops(&self) -> impl Iterator<Item = &'a Op> + 'a {
        let cdfg = self.cdfg;
        self.op_ids().iter().map(move |&id| cdfg.op(id))
    }

    /// Data nodes referenced by this block (operands and results), in
    /// first-appearance order, deduplicated.
    ///
    /// Value ids are dense per CDFG, so the walk dedups through a flag
    /// table indexed by id rather than a hash set: the engine's job key
    /// walks every block, and hashing each operand would dominate it.
    pub fn values(&self) -> Vec<&'a Value> {
        let mut seen = vec![false; self.cdfg.num_values()];
        let mut out = Vec::new();
        for op in self.ops() {
            for &v in op.args.iter().chain(&op.result) {
                if !std::mem::replace(&mut seen[v.0 as usize], true) {
                    out.push(self.cdfg.value(v));
                }
            }
        }
        out
    }

    /// The consumers of a value among this block's operations.
    pub fn consumers(&self, value: ValueId) -> Vec<OpId> {
        self.ops()
            .filter(|op| op.args.contains(&value))
            .map(|op| op.id)
            .collect()
    }

    /// Fan-out of an operation: number of argument slots its result feeds,
    /// plus one if it writes a symbol (the cross-block consumer).
    pub fn fanout(&self, op: OpId) -> usize {
        let o = self.cdfg.op(op);
        let mut n = 0;
        if let Some(r) = o.result {
            n += self
                .ops()
                .map(|c| c.args.iter().filter(|&&a| a == r).count())
                .sum::<usize>();
        }
        if o.writes_symbol.is_some() {
            n += 1;
        }
        n
    }

    /// Distinct constants used by this block's operations (CRF pressure).
    pub fn constants(&self) -> Vec<i32> {
        let mut out = Vec::new();
        for op in self.ops() {
            for &a in &op.args {
                if let ValueKind::Const(c) = self.cdfg.value(a).kind {
                    if !out.contains(&c) {
                        out.push(c);
                    }
                }
            }
        }
        out
    }

    /// Symbols read by this block (through [`ValueKind::SymbolUse`]
    /// operands), deduplicated in first-use order.
    pub fn symbols_read(&self) -> Vec<SymbolId> {
        let mut out = Vec::new();
        for op in self.ops() {
            for &a in &op.args {
                if let ValueKind::SymbolUse(s) = self.cdfg.value(a).kind {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
        out
    }

    /// Symbols written by this block, in program order.
    pub fn symbols_written(&self) -> Vec<SymbolId> {
        let mut out = Vec::new();
        for op in self.ops() {
            if let Some(s) = op.writes_symbol {
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        out
    }

    /// Data-dependency predecessors of `op` *within this block*: the ops
    /// producing its operands.
    pub fn data_preds(&self, op: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        for &a in &self.cdfg.op(op).args {
            if let ValueKind::Def(p) = self.cdfg.value(a).kind {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::CdfgBuilder;
    use crate::op::Opcode;

    #[test]
    fn dfg_views_ops_and_values() {
        let mut b = CdfgBuilder::new("t");
        let bb = b.block("b0");
        b.select(bb);
        let c1 = b.constant(1);
        let c2 = b.constant(2);
        let sum = b.op(Opcode::Add, &[c1, c2]);
        let _prod = b.op(Opcode::Mul, &[sum, c2]);
        b.ret();
        let cdfg = b.finish().unwrap();

        let dfg = cdfg.dfg(bb);
        assert_eq!(dfg.num_ops(), 2);
        assert_eq!(dfg.constants(), vec![1, 2]);
        // add feeds mul once.
        let add_id = dfg.op_ids()[0];
        assert_eq!(dfg.fanout(add_id), 1);
        assert_eq!(dfg.data_preds(dfg.op_ids()[1]), vec![add_id]);
        assert_eq!(dfg.consumers(sum), vec![dfg.op_ids()[1]]);
        // Values: c1, c2, sum result, mul result.
        assert_eq!(dfg.values().len(), 4);
    }

    #[test]
    fn symbol_read_write_tracking() {
        let mut b = CdfgBuilder::new("t");
        let bb = b.block("b0");
        let s = b.symbol("x");
        b.select(bb);
        let v = b.use_symbol(s);
        let c = b.constant(3);
        let r = b.op(Opcode::Add, &[v, c]);
        b.write_symbol(r, s);
        b.ret();
        let cdfg = b.finish().unwrap();
        let dfg = cdfg.dfg(bb);
        assert_eq!(dfg.symbols_read(), vec![s]);
        assert_eq!(dfg.symbols_written(), vec![s]);
        // Fanout counts the symbol write as one consumer.
        let add = dfg.op_ids()[0];
        assert_eq!(dfg.fanout(add), 1);
    }
}
