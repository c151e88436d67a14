//! Fluent construction of [`Cdfg`]s.

use crate::cdfg::{BasicBlock, BlockId, Cdfg, Terminator};
use crate::dfg::{AliasClass, Op, OpId};
use crate::op::Opcode;
use crate::validate::ValidateError;
use crate::value::{Symbol, SymbolId, Value, ValueId, ValueKind};

/// Builder for [`Cdfg`]s.
///
/// Typical use: declare blocks and symbols up front, then [`select`] each
/// block in turn and append its operations; finish with a terminator per
/// block and [`finish`], which validates the result.
///
/// Constants are interned per block (two `constant(3)` calls in the same
/// block return the same data node, matching a CRF entry); symbol uses are
/// interned per block as well (one read of the home register per block).
///
/// [`select`]: CdfgBuilder::select
/// [`finish`]: CdfgBuilder::finish
///
/// ```
/// use cmam_cdfg::{CdfgBuilder, Opcode};
/// let mut b = CdfgBuilder::new("axpy");
/// let bb = b.block("body");
/// b.select(bb);
/// let addr_x = b.constant(0);
/// let addr_y = b.constant(1);
/// let x = b.load_name(addr_x, "x");
/// let a = b.constant(3);
/// let ax = b.op(Opcode::Mul, &[a, x]);
/// b.store(addr_y, ax, "y");
/// b.ret();
/// let cdfg = b.finish()?;
/// assert_eq!(cdfg.total_ops(), 3);
/// # Ok::<(), cmam_cdfg::ValidateError>(())
/// ```
#[derive(Debug)]
pub struct CdfgBuilder {
    name: String,
    blocks: Vec<BasicBlock>,
    ops: Vec<Op>,
    values: Vec<Value>,
    value_block: Vec<BlockId>,
    symbols: Vec<Symbol>,
    alias_names: Vec<String>,
    current: Option<BlockId>,
    /// (block, constant) -> interned value id.
    const_cache: std::collections::HashMap<(BlockId, i32), ValueId>,
    /// (block, symbol) -> interned symbol-use value id.
    symuse_cache: std::collections::HashMap<(BlockId, SymbolId), ValueId>,
}

impl CdfgBuilder {
    /// Starts a new kernel.
    pub fn new(name: impl Into<String>) -> Self {
        CdfgBuilder {
            name: name.into(),
            blocks: Vec::new(),
            ops: Vec::new(),
            values: Vec::new(),
            value_block: Vec::new(),
            symbols: Vec::new(),
            alias_names: Vec::new(),
            current: None,
            const_cache: std::collections::HashMap::new(),
            symuse_cache: std::collections::HashMap::new(),
        }
    }

    /// Declares a basic block. The first declared block is the entry.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BasicBlock {
            id,
            name: name.into(),
            ops: Vec::new(),
            terminator: None,
        });
        if self.current.is_none() {
            self.current = Some(id);
        }
        id
    }

    /// Declares a symbol variable.
    pub fn symbol(&mut self, name: impl Into<String>) -> SymbolId {
        let id = SymbolId(self.symbols.len() as u32);
        self.symbols.push(Symbol { name: name.into() });
        id
    }

    /// Selects the block subsequent operations are appended to.
    ///
    /// # Panics
    ///
    /// Panics if the block does not exist.
    pub fn select(&mut self, block: BlockId) {
        assert!(
            (block.0 as usize) < self.blocks.len(),
            "unknown block {block}"
        );
        self.current = Some(block);
    }

    fn current(&self) -> BlockId {
        self.current.expect("no block selected")
    }

    fn new_value(&mut self, kind: ValueKind, block: BlockId) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(Value { id, kind });
        self.value_block.push(block);
        id
    }

    /// An immediate constant usable in the current block (interned).
    pub fn constant(&mut self, c: i32) -> ValueId {
        let bb = self.current();
        if let Some(&v) = self.const_cache.get(&(bb, c)) {
            return v;
        }
        let v = self.new_value(ValueKind::Const(c), bb);
        self.const_cache.insert((bb, c), v);
        v
    }

    /// The value of symbol `s` at entry of the current block (interned).
    pub fn use_symbol(&mut self, s: SymbolId) -> ValueId {
        let bb = self.current();
        if let Some(&v) = self.symuse_cache.get(&(bb, s)) {
            return v;
        }
        let v = self.new_value(ValueKind::SymbolUse(s), bb);
        self.symuse_cache.insert((bb, s), v);
        v
    }

    fn push_op(
        &mut self,
        opcode: Opcode,
        args: &[ValueId],
        alias: Option<AliasClass>,
    ) -> (OpId, Option<ValueId>) {
        assert_eq!(
            args.len(),
            opcode.arity(),
            "{opcode} expects {} operands, got {}",
            opcode.arity(),
            args.len()
        );
        let bb = self.current();
        let id = OpId(self.ops.len() as u32);
        let result = if opcode.has_result() {
            Some(self.new_value(ValueKind::Def(id), bb))
        } else {
            None
        };
        self.ops.push(Op {
            id,
            block: bb,
            opcode,
            args: args.to_vec(),
            result,
            writes_symbol: None,
            alias,
        });
        self.blocks[bb.0 as usize].ops.push(id);
        (id, result)
    }

    /// Appends a pure ALU operation and returns its result value.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, on memory/branch opcodes (use [`load`],
    /// [`store`], [`branch`]), or if no block is selected.
    ///
    /// [`load`]: CdfgBuilder::load
    /// [`store`]: CdfgBuilder::store
    /// [`branch`]: CdfgBuilder::branch
    pub fn op(&mut self, opcode: Opcode, args: &[ValueId]) -> ValueId {
        assert!(
            !opcode.is_memory() && !opcode.is_branch(),
            "use the dedicated builder method for {opcode}"
        );
        self.push_op(opcode, args, None)
            .1
            .expect("ALU ops produce results")
    }

    /// Interns an alias class by name.
    pub fn alias_class(&mut self, name: &str) -> AliasClass {
        if let Some(i) = self.alias_names.iter().position(|n| n == name) {
            return AliasClass(i as u32);
        }
        self.alias_names.push(name.to_owned());
        AliasClass((self.alias_names.len() - 1) as u32)
    }

    /// Appends a load from word address `addr` within `class`.
    pub fn load(&mut self, addr: ValueId, class: AliasClass) -> ValueId {
        self.push_op(Opcode::Load, &[addr], Some(class))
            .1
            .expect("loads produce results")
    }

    /// [`load`](CdfgBuilder::load) with the class given by name.
    pub fn load_name(&mut self, addr: ValueId, class: &str) -> ValueId {
        let c = self.alias_class(class);
        self.load(addr, c)
    }

    /// Appends a store of `value` to word address `addr` within `class`
    /// (given by name).
    pub fn store(&mut self, addr: ValueId, value: ValueId, class: &str) {
        let c = self.alias_class(class);
        self.push_op(Opcode::Store, &[addr, value], Some(c));
    }

    /// Marks `value` as the new contents of symbol `s` at exit of the
    /// current block.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not produced by an operation of the current
    /// block (constants / symbol uses must be copied through a `mov`
    /// first — [`mov_const_to_symbol`] does that for a constant), or if
    /// the symbol is already written in this block.
    ///
    /// [`mov_const_to_symbol`]: CdfgBuilder::mov_const_to_symbol
    pub fn write_symbol(&mut self, value: ValueId, s: SymbolId) {
        let bb = self.current();
        let def = match self.values[value.0 as usize].kind {
            ValueKind::Def(op) if self.ops[op.0 as usize].block == bb => op,
            _ => panic!("symbol writes must come from an op of the current block"),
        };
        assert!(
            !self.blocks[bb.0 as usize]
                .ops
                .iter()
                .any(|&o| self.ops[o.0 as usize].writes_symbol == Some(s)),
            "symbol {s} written twice in {bb}"
        );
        self.ops[def.0 as usize].writes_symbol = Some(s);
    }

    /// Emits `mov` of a constant and writes it to symbol `s` (the usual way
    /// to initialise induction variables / accumulators).
    pub fn mov_const_to_symbol(&mut self, c: i32, s: SymbolId) {
        let cv = self.constant(c);
        let v = self.op(Opcode::Mov, &[cv]);
        self.write_symbol(v, s);
    }

    fn terminate(&mut self, t: Terminator) {
        let bb = self.current();
        let slot = &mut self.blocks[bb.0 as usize].terminator;
        assert!(slot.is_none(), "block {bb} already terminated");
        *slot = Some(t);
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, to: BlockId) {
        self.terminate(Terminator::Jump(to));
    }

    /// Appends the `br` operation consuming `cond` and terminates the
    /// current block with a two-way branch.
    pub fn branch(&mut self, cond: ValueId, taken: BlockId, fallthrough: BlockId) {
        let (op, _) = self.push_op(Opcode::Br, &[cond], None);
        self.terminate(Terminator::Branch {
            op,
            taken,
            fallthrough,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self) {
        self.terminate(Terminator::Return);
    }

    /// Validates and returns the finished CDFG.
    ///
    /// # Errors
    ///
    /// Returns a [`ValidateError`] describing the first structural problem
    /// (unterminated block, dangling reference, cross-block SSA use, …).
    pub fn finish(self) -> Result<Cdfg, ValidateError> {
        let entry = self
            .blocks
            .first()
            .map(|b| b.id)
            .ok_or(ValidateError::Empty)?;
        let cdfg = Cdfg {
            name: self.name,
            blocks: self.blocks,
            ops: self.ops,
            values: self.values,
            value_block: self.value_block,
            symbols: self.symbols,
            alias_names: self.alias_names,
            entry,
        };
        cdfg.validate()?;
        Ok(cdfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned_per_block() {
        let mut b = CdfgBuilder::new("t");
        let b0 = b.block("b0");
        let b1 = b.block("b1");
        b.select(b0);
        let a = b.constant(7);
        let a2 = b.constant(7);
        assert_eq!(a, a2);
        let r = b.op(Opcode::Add, &[a, a2]);
        let _keep = r;
        b.jump(b1);
        b.select(b1);
        let c = b.constant(7);
        assert_ne!(a, c, "different blocks intern separately");
        let z = b.constant(0);
        let m = b.op(Opcode::Add, &[c, z]);
        b.store(z, m, "out");
        b.ret();
        b.finish().unwrap();
    }

    #[test]
    fn symbol_uses_are_interned() {
        let mut b = CdfgBuilder::new("t");
        let b0 = b.block("b0");
        let s = b.symbol("x");
        b.select(b0);
        b.mov_const_to_symbol(1, s);
        let u1 = b.use_symbol(s);
        let u2 = b.use_symbol(s);
        assert_eq!(u1, u2);
        b.ret();
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_symbol_write_panics() {
        let mut b = CdfgBuilder::new("t");
        let _b0 = b.block("b0");
        let s = b.symbol("x");
        b.mov_const_to_symbol(1, s);
        b.mov_const_to_symbol(2, s);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = CdfgBuilder::new("t");
        let _ = b.block("b0");
        b.ret();
        b.ret();
    }

    #[test]
    #[should_panic(expected = "must come from an op")]
    fn symbol_write_of_constant_panics() {
        let mut b = CdfgBuilder::new("t");
        let _ = b.block("b0");
        let s = b.symbol("x");
        let c = b.constant(1);
        b.write_symbol(c, s);
    }

    #[test]
    fn empty_cdfg_is_rejected() {
        let b = CdfgBuilder::new("t");
        assert!(matches!(b.finish(), Err(ValidateError::Empty)));
    }
}
