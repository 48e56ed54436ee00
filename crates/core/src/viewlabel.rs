//! View labels (§4.3): the static, per-view half of the scheme.
//!
//! A view label is `φv(U) = {λ*(S), I, O, Z}` — the full dependency
//! assignment's matrix for the start module plus the three per-production
//! matrix functions. The three variants of §6.3 differ only in how much of
//! this is materialized:
//!
//! * **Space-Efficient** stores λ\* alone ("almost no index … any access to
//!   I, O and Z will be answered by performing a graph search over the view
//!   of a specification at query time");
//! * **Default** pre-computes and stores every `I`/`O`/`Z` matrix;
//! * **Query-Efficient** additionally stores, per recursion and per chain
//!   offset, the prefix products `P_t(r)` and the `Xᵃ = Xᵇ` power caches of
//!   §4.4.3, so arbitrary-length recursion chains evaluate in O(1).

use crate::error::FvlError;
use crate::snapshot::{read_deps, read_mat, write_deps, write_mat};
use wf_analysis::{full_assignment, production_matrices, ProdGraph, ProductionMatrices};
use wf_bitio::{BitReader, BitWriter, ReadError};
use wf_boolmat::{BoolMat, PowerCache};
use wf_model::{DepAssignment, Grammar, ProdId, ViewSpec};

/// Which §6.3 variant a view label was built as.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum VariantKind {
    SpaceEfficient,
    Default,
    QueryEfficient,
}

impl VariantKind {
    /// Every variant, in [`VariantKind::code`] order. The canonical way to
    /// sweep "all three variants" in tests, fuzzers and benches — adding a
    /// variant extends this array and every sweep follows.
    pub const ALL: [VariantKind; 3] =
        [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

    /// Stable human-readable name (report keys, fuzz divergence messages).
    pub fn name(self) -> &'static str {
        match self {
            VariantKind::SpaceEfficient => "space_efficient",
            VariantKind::Default => "default",
            VariantKind::QueryEfficient => "query_efficient",
        }
    }

    /// Stable dense code of the variant (0, 1, 2) — the registry's slot
    /// index and the snapshot wire value.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            VariantKind::SpaceEfficient => 0,
            VariantKind::Default => 1,
            VariantKind::QueryEfficient => 2,
        }
    }

    /// Inverse of [`VariantKind::code`]; `None` for out-of-range input.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(VariantKind::SpaceEfficient),
            1 => Some(VariantKind::Default),
            2 => Some(VariantKind::QueryEfficient),
            _ => None,
        }
    }
}

/// Materialized chain caches for one production-graph cycle (Query-Efficient
/// only). `l` = cycle length; offsets are positions within the cycle.
#[derive(Clone, Debug)]
pub struct CycleCache {
    /// `i_prefix[t][r]` = product of `r` I-matrices starting at offset `t`
    /// (`r = 0` is the identity on the inputs of the cycle module at `t`).
    pub i_prefix: Vec<Vec<BoolMat>>,
    /// Power cache of `X_t` = full-cycle I-product starting at `t`.
    pub i_power: Vec<PowerCache>,
    /// Same for the (reversed) O-chain.
    pub o_prefix: Vec<Vec<BoolMat>>,
    pub o_power: Vec<PowerCache>,
}

/// Process-unique label ids (see [`ViewLabel::uid`]).
static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn fresh_uid() -> u64 {
    NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The label of one view.
pub struct ViewLabel {
    uid: u64,
    kind: VariantKind,
    /// λ\* of the view — covers every derivable module.
    lambda: DepAssignment,
    /// λ\*(S), used directly for boundary-to-boundary queries.
    lambda_s: BoolMat,
    /// Which productions are active (LHS ∈ Δ′).
    active: Vec<bool>,
    /// Materialized matrices per production (Default / Query-Efficient).
    mats: Vec<Option<ProductionMatrices>>,
    /// Per-cycle chain caches (Query-Efficient); `None` when the cycle is
    /// broken by the view (some cycle production inactive).
    cycles: Vec<Option<CycleCache>>,
}

impl ViewLabel {
    /// Builds the label of a view (rejecting unsafe views, Theorem 1).
    pub fn build(vs: &ViewSpec<'_>, pg: &ProdGraph, kind: VariantKind) -> Result<Self, FvlError> {
        let grammar = vs.grammar();
        let lambda = full_assignment(vs)?;
        let lambda_s = lambda
            .get(grammar.start())
            .expect("start module always has a full-assignment matrix")
            .clone();
        let active: Vec<bool> = grammar.productions().map(|(k, _)| vs.prod_active(k)).collect();

        let mats: Vec<Option<ProductionMatrices>> = match kind {
            VariantKind::SpaceEfficient => vec![None; grammar.production_count()],
            _ => active
                .iter()
                .enumerate()
                .map(|(k, &a)| a.then(|| production_matrices(grammar, ProdId(k as u32), &lambda)))
                .collect(),
        };

        let cycles = build_cycle_caches(grammar, pg, kind, &active, &mats)?;
        Ok(Self { uid: fresh_uid(), kind, lambda, lambda_s, active, mats, cycles })
    }

    /// Assembles a view label from externally computed parts — used by the
    /// user-defined-view machinery (§5), which substitutes grouped matrices.
    pub(crate) fn from_parts(
        kind: VariantKind,
        lambda: DepAssignment,
        lambda_s: BoolMat,
        active: Vec<bool>,
        mats: Vec<Option<ProductionMatrices>>,
        grammar: &Grammar,
        pg: &ProdGraph,
    ) -> Self {
        let cycles = build_cycle_caches(grammar, pg, kind, &active, &mats)
            .expect("caller guarantees strict linearity");
        Self { uid: fresh_uid(), kind, lambda, lambda_s, active, mats, cycles }
    }

    /// A process-unique id of this label. Session scratch keys its
    /// recursion-chain power memo by this, so one scratch can serve any
    /// interleaving of views without cross-view poisoning (and without an
    /// address-based tag, which the allocator could recycle).
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    #[inline]
    pub fn kind(&self) -> VariantKind {
        self.kind
    }

    #[inline]
    pub fn lambda_star(&self) -> &DepAssignment {
        &self.lambda
    }

    /// λ\*(S) — the boundary matrix.
    #[inline]
    pub fn lambda_star_s(&self) -> &BoolMat {
        &self.lambda_s
    }

    #[inline]
    pub fn prod_active(&self, k: ProdId) -> bool {
        self.active[k.index()]
    }

    /// Query-Efficient chain cache for a cycle, if materialized and intact.
    pub fn cycle_cache(&self, s: u16) -> Option<&CycleCache> {
        self.cycles.get(s as usize).and_then(|c| c.as_ref())
    }

    /// The materialized matrices of production `k`, when this variant
    /// stores them (`None` for Space-Efficient labels, whose decode
    /// searches each matrix it needs at query time).
    pub(crate) fn materialized(&self, k: ProdId) -> Option<&ProductionMatrices> {
        self.mats[k.index()].as_ref()
    }

    /// Serializes the compiled label into `w` (the snapshot wire form; see
    /// DESIGN.md S6 for the layout). `λ*(S)` is not written — it is, by
    /// construction, `λ*`'s entry for the start module and is re-derived on
    /// read, so a snapshot cannot carry the two out of sync. Everything the
    /// variant materialized *is* written, including the Query-Efficient
    /// chain caches: a warm start never re-runs cycle-finding.
    pub fn write_snapshot(&self, w: &mut BitWriter) {
        w.write_bits(self.kind.code() as u64, 2);
        write_deps(w, &self.lambda);
        for &a in &self.active {
            w.push_bit(a);
        }
        for m in &self.mats {
            w.push_bit(m.is_some());
            if let Some(pm) = m {
                for mat in pm.i_mats.iter().chain(&pm.o_mats) {
                    write_mat(w, mat);
                }
                for mat in pm.z_mats.iter().flatten() {
                    write_mat(w, mat);
                }
            }
        }
        w.write_gamma(self.cycles.len() as u64 + 1);
        for c in &self.cycles {
            w.push_bit(c.is_some());
            if let Some(c) = c {
                for mat in c.i_prefix.iter().chain(&c.o_prefix).flatten() {
                    write_mat(w, mat);
                }
                for cache in c.i_power.iter().chain(&c.o_power) {
                    write_power_cache(w, cache);
                }
            }
        }
    }

    /// Reads a label previously written by [`ViewLabel::write_snapshot`]
    /// against the *same* specification (the caller guards that with a spec
    /// fingerprint). All counts and dimensions are validated against the
    /// grammar and production graph; structural violations are
    /// [`ReadError::Malformed`], never a panic. The label gets a **fresh**
    /// [`ViewLabel::uid`]: uids key session chain-power memos, so a loaded
    /// label must never collide with one compiled earlier in this process.
    pub fn read_snapshot(
        r: &mut BitReader<'_>,
        grammar: &Grammar,
        pg: &ProdGraph,
    ) -> Result<Self, ReadError> {
        let kind = VariantKind::from_code(r.read_bits(2)? as u8).ok_or(ReadError::Malformed)?;
        let lambda = read_deps(r, grammar.module_count())?;
        for (m, mat) in lambda.iter() {
            let sig = grammar.sig(m);
            if mat.rows() != sig.inputs() || mat.cols() != sig.outputs() {
                return Err(ReadError::Malformed);
            }
        }
        let lambda_s = lambda.get(grammar.start()).ok_or(ReadError::Malformed)?.clone();
        let pc = grammar.production_count();
        let mut active = Vec::with_capacity(pc);
        for _ in 0..pc {
            active.push(r.read_bit()?);
        }
        // Any active production may be *searched* at query time
        // (Space-Efficient always; other variants whenever a mats entry is
        // absent), and that search requires λ* to cover every module on
        // the production's RHS — demand the coverage here instead of
        // panicking inside the first query's sweep.
        for (k, _) in active.iter().enumerate().filter(|&(_, &a)| a) {
            let p = grammar.production(ProdId(k as u32));
            if p.rhs.nodes().iter().any(|&m| lambda.get(m).is_none()) {
                return Err(ReadError::Malformed);
            }
        }
        let mut mats = Vec::with_capacity(pc);
        for k in 0..pc {
            if !r.read_bit()? {
                mats.push(None);
                continue;
            }
            // Every matrix must fit the shape §4.3 defines for its slot —
            // I(k,i): lhs inputs × node-i inputs, O(k,i): lhs outputs ×
            // node-i outputs, Z(k,i,j): node-i outputs × node-j inputs —
            // or the first query would index out of range instead of
            // erroring here.
            let p = grammar.production(ProdId(k as u32));
            let lhs = grammar.sig(p.lhs);
            let n = p.rhs.node_count();
            let node_sig = |i: usize| grammar.sig(p.rhs.nodes()[i]);
            let expect = |m: &BoolMat, rows: usize, cols: usize| {
                if m.rows() == rows && m.cols() == cols {
                    Ok(())
                } else {
                    Err(ReadError::Malformed)
                }
            };
            let mut i_mats = Vec::with_capacity(n);
            let mut o_mats = Vec::with_capacity(n);
            for i in 0..n {
                let m = read_mat(r)?;
                expect(&m, lhs.inputs(), node_sig(i).inputs())?;
                i_mats.push(m);
            }
            for i in 0..n {
                let m = read_mat(r)?;
                expect(&m, lhs.outputs(), node_sig(i).outputs())?;
                o_mats.push(m);
            }
            let mut z_mats = Vec::with_capacity(n);
            for i in 0..n {
                let mut row = Vec::with_capacity(n);
                for j in 0..n {
                    let m = read_mat(r)?;
                    expect(&m, node_sig(i).outputs(), node_sig(j).inputs())?;
                    row.push(m);
                }
                z_mats.push(row);
            }
            mats.push(Some(ProductionMatrices { i_mats, o_mats, z_mats }));
        }
        let tables = pg.cycles().map_err(|_| ReadError::Malformed)?;
        let count = (r.read_gamma()? - 1) as usize;
        if count != tables.len() {
            return Err(ReadError::Malformed);
        }
        let mut cycles = Vec::with_capacity(count);
        for cycle in tables {
            if !r.read_bit()? {
                cycles.push(None);
                continue;
            }
            let l = cycle.len();
            // Prefix products and power caches must carry the cycle's port
            // arities: `i_prefix[t][r]` maps inputs of the module at offset
            // `t` to inputs at offset `t + r` (wrapping), and the power
            // cache at `t` is square over offset `t`'s arity.
            let dim_at = |t: usize, inputs: bool| {
                let sig = grammar.sig(cycle.modules[t % l]);
                if inputs {
                    sig.inputs()
                } else {
                    sig.outputs()
                }
            };
            let read_prefixes =
                |r: &mut BitReader<'_>, inputs: bool| -> Result<Vec<Vec<BoolMat>>, ReadError> {
                    let mut pre = Vec::with_capacity(l);
                    for t in 0..l {
                        let mut row = Vec::with_capacity(l);
                        for rr in 0..l {
                            let m = read_mat(r)?;
                            if m.rows() != dim_at(t, inputs) || m.cols() != dim_at(t + rr, inputs) {
                                return Err(ReadError::Malformed);
                            }
                            row.push(m);
                        }
                        pre.push(row);
                    }
                    Ok(pre)
                };
            let i_prefix = read_prefixes(r, true)?;
            let o_prefix = read_prefixes(r, false)?;
            let mut i_power = Vec::with_capacity(l);
            let mut o_power = Vec::with_capacity(l);
            for t in 0..l {
                i_power.push(read_power_cache(r, dim_at(t, true))?);
            }
            for t in 0..l {
                o_power.push(read_power_cache(r, dim_at(t, false))?);
            }
            cycles.push(Some(CycleCache { i_prefix, i_power, o_prefix, o_power }));
        }
        Ok(Self { uid: fresh_uid(), kind, lambda, lambda_s, active, mats, cycles })
    }

    /// Wire size of the view label in bits — what Figure 19 measures.
    /// λ\*(S) is charged to every variant; Default adds `I`/`O`/`Z`;
    /// Query-Efficient adds the chain caches.
    pub fn size_bits(&self) -> usize {
        let mut bits = self.lambda_s.payload_bits();
        if self.kind == VariantKind::SpaceEfficient {
            // λ* for non-start modules is the "less than 5 bytes per view"
            // residue: it is needed to run graph searches at query time.
            bits += self.lambda.iter().map(|(_, m)| m.payload_bits()).sum::<usize>();
            return bits;
        }
        bits += self.mats.iter().flatten().map(ProductionMatrices::payload_bits).sum::<usize>();
        for c in self.cycles.iter().flatten() {
            bits += c
                .i_prefix
                .iter()
                .chain(&c.o_prefix)
                .flat_map(|v| v.iter().map(BoolMat::payload_bits))
                .sum::<usize>();
            bits += c.i_power.iter().map(PowerCache::payload_bits).sum::<usize>();
            bits += c.o_power.iter().map(PowerCache::payload_bits).sum::<usize>();
        }
        bits
    }
}

fn write_power_cache(w: &mut BitWriter, c: &PowerCache) {
    w.write_gamma(c.pre_period());
    w.write_gamma(c.repeat_at());
    for e in 1..c.repeat_at() {
        write_mat(w, c.power(e));
    }
}

/// Reads a power cache whose base must be `dim × dim` (the caller knows the
/// cycle offset's port arity).
///
/// `b` is not capped: whatever repeat exponent a cache was *written* with
/// must load back (write/read symmetry — theory allows periods far beyond
/// any fixed constant). A forged, absurdly large `b` is harmless anyway:
/// the powers vector grows only as matrices are actually decoded, and each
/// iteration consumes payload bits, so the loop dies on `OutOfBits` no
/// later than the (length-verified) payload runs dry.
fn read_power_cache(r: &mut BitReader<'_>, dim: usize) -> Result<PowerCache, ReadError> {
    let a = r.read_gamma()?;
    let b = r.read_gamma()?;
    if b < 2 {
        return Err(ReadError::Malformed);
    }
    let mut powers = Vec::new();
    for _ in 1..b {
        let m = read_mat(r)?;
        if m.rows() != dim || m.cols() != dim {
            return Err(ReadError::Malformed);
        }
        powers.push(m);
    }
    // from_parts re-verifies the successor-product chain and the wrap-around
    // exponent, so the loaded cache is *internally consistent*: exponent
    // folding is sound for whatever base it stores, and no lookup can index
    // out of range. Whether that base equals the cycle's true X_t is a
    // value-level question the checksum answers for accidental corruption;
    // a snapshot is a cache of deterministic computation, not an
    // authenticated document (re-derive from the spec when in doubt).
    PowerCache::from_parts(powers, a, b).ok_or(ReadError::Malformed)
}

/// Builds the Query-Efficient per-cycle chain caches (`None` per cycle for
/// other variants or when the view breaks the cycle).
fn build_cycle_caches(
    grammar: &Grammar,
    pg: &ProdGraph,
    kind: VariantKind,
    active: &[bool],
    mats: &[Option<ProductionMatrices>],
) -> Result<Vec<Option<CycleCache>>, FvlError> {
    if kind != VariantKind::QueryEfficient {
        return Ok(pg.cycles().map(|c| vec![None; c.len()]).unwrap_or_default());
    }
    let tables = pg
        .cycles()
        .map_err(|c| FvlError::NotStrictlyLinear { witness: wf_model::ModuleId(c.witness.0) })?;
    Ok(tables
        .iter()
        .map(|cycle| {
            if !cycle.edges.iter().all(|&(k, _)| active[k.index()]) {
                return None; // cycle broken by the view
            }
            let l = cycle.len();
            let i_of = |pos: usize| {
                let (k, i) = cycle.edge_at(pos);
                mats[k.index()].as_ref().unwrap().i_mats[i as usize].clone()
            };
            let o_of = |pos: usize| {
                let (k, i) = cycle.edge_at(pos);
                mats[k.index()].as_ref().unwrap().o_mats[i as usize].clone()
            };
            let mut i_prefix = Vec::with_capacity(l);
            let mut i_power = Vec::with_capacity(l);
            let mut o_prefix = Vec::with_capacity(l);
            let mut o_power = Vec::with_capacity(l);
            for t in 0..l {
                let in_dim = grammar.sig(cycle.modules[t]).inputs();
                let out_dim = grammar.sig(cycle.modules[t]).outputs();
                let mut ip = vec![BoolMat::identity(in_dim)];
                let mut op = vec![BoolMat::identity(out_dim)];
                for r in 0..l {
                    ip.push(ip[r].matmul(&i_of(t + r)));
                    op.push(op[r].matmul(&o_of(t + r)));
                }
                let x_i = ip.pop().unwrap(); // P_t(l) = X_t
                let x_o = op.pop().unwrap();
                i_prefix.push(ip);
                o_prefix.push(op);
                i_power.push(PowerCache::new(x_i));
                o_power.push(PowerCache::new(x_o));
            }
            Some(CycleCache { i_prefix, i_power, o_prefix, o_power })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::paper_example;

    fn setup() -> (wf_model::fixtures::PaperExample, ProdGraph) {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        (ex, pg)
    }

    #[test]
    fn all_variants_build_for_default_view() {
        let (ex, pg) = setup();
        let u1 = ex.view_u1();
        let vs = ViewSpec::new(&ex.spec, &u1);
        for kind in [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient]
        {
            let vl = ViewLabel::build(&vs, &pg, kind).unwrap();
            assert_eq!(vl.kind(), kind);
            assert_eq!(vl.lambda_star_s().rows(), 2);
            assert_eq!(vl.lambda_star_s().cols(), 3);
        }
    }

    #[test]
    fn variant_sizes_are_ordered() {
        // Figure 19: Space-Efficient < Default < Query-Efficient.
        let (ex, pg) = setup();
        let u1 = ex.view_u1();
        let vs = ViewSpec::new(&ex.spec, &u1);
        let se = ViewLabel::build(&vs, &pg, VariantKind::SpaceEfficient).unwrap();
        let de = ViewLabel::build(&vs, &pg, VariantKind::Default).unwrap();
        let qe = ViewLabel::build(&vs, &pg, VariantKind::QueryEfficient).unwrap();
        assert!(se.size_bits() < de.size_bits(), "{} vs {}", se.size_bits(), de.size_bits());
        assert!(de.size_bits() < qe.size_bits(), "{} vs {}", de.size_bits(), qe.size_bits());
    }

    #[test]
    fn inactive_productions_have_no_matrices() {
        let (ex, pg) = setup();
        let u2 = ex.view_u2();
        let vs = ViewSpec::new(&ex.spec, &u2);
        let vl = ViewLabel::build(&vs, &pg, VariantKind::Default).unwrap();
        // p5 = C -> W5 is inactive in U2 (C ∉ Δ′).
        assert!(!vl.prod_active(ex.prods[4]));
        assert!(vl.materialized(ex.prods[4]).is_none());
        // p1 = S -> W1 is active.
        assert!(vl.prod_active(ex.prods[0]));
        assert!(vl.materialized(ex.prods[0]).is_some());
    }

    #[test]
    fn broken_cycles_lose_their_cache() {
        let (ex, pg) = setup();
        let u2 = ex.view_u2();
        let vs = ViewSpec::new(&ex.spec, &u2);
        let vl = ViewLabel::build(&vs, &pg, VariantKind::QueryEfficient).unwrap();
        // Cycle 0 (A/B) is intact in U2; cycle 1 (D) is broken (C ∉ Δ′ means
        // p6 stays active? No: p6's LHS is D, and D ∉ Δ′ ⇒ inactive).
        assert!(vl.cycle_cache(0).is_some());
        assert!(vl.cycle_cache(1).is_none());
    }

    #[test]
    fn snapshot_roundtrips_every_variant() {
        let (ex, pg) = setup();
        let g = &ex.spec.grammar;
        for view in [ex.view_u1(), ex.view_u2()] {
            let vs = ViewSpec::new(&ex.spec, &view);
            for kind in
                [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient]
            {
                let vl = ViewLabel::build(&vs, &pg, kind).unwrap();
                let mut w = BitWriter::new();
                vl.write_snapshot(&mut w);
                let bits = w.finish();
                let mut r = BitReader::new(&bits);
                let back = ViewLabel::read_snapshot(&mut r, g, &pg).unwrap();
                assert_eq!(r.remaining(), 0, "{kind:?}: trailing bits");
                assert_eq!(back.kind(), kind);
                assert_ne!(back.uid(), vl.uid(), "{kind:?}: a loaded label needs a fresh uid");
                assert_eq!(back.lambda_star_s(), vl.lambda_star_s());
                assert_eq!(back.size_bits(), vl.size_bits(), "{kind:?}");
                for m in g.modules() {
                    assert_eq!(back.lambda_star().get(m), vl.lambda_star().get(m), "λ*({m})");
                }
                for (k, _) in g.productions() {
                    assert_eq!(back.prod_active(k), vl.prod_active(k));
                    assert_eq!(back.materialized(k), vl.materialized(k), "{kind:?}: {k}");
                }
                for s in 0..pg.cycle_count() as u16 {
                    assert_eq!(back.cycle_cache(s).is_some(), vl.cycle_cache(s).is_some());
                    if let (Some(bc), Some(oc)) = (back.cycle_cache(s), vl.cycle_cache(s)) {
                        assert_eq!(bc.i_prefix, oc.i_prefix);
                        assert_eq!(bc.o_prefix, oc.o_prefix);
                        for (bp, op) in bc.i_power.iter().zip(&oc.i_power) {
                            assert_eq!(bp.repeat_at(), op.repeat_at());
                            for e in 0..12u64 {
                                assert_eq!(bp.power(e), op.power(e));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_rejects_truncation_anywhere() {
        // Cutting the stream at any bit position must yield a typed error,
        // never a panic (OutOfBits mid-field, or Malformed if the shorter
        // stream happens to parse into an inconsistent structure — trailing
        // slack can make very late cuts still decode, so only assert no
        // panic + typed error for strict prefixes that fail).
        let (ex, pg) = setup();
        let g = &ex.spec.grammar;
        let u1 = ex.view_u1();
        let vs = ViewSpec::new(&ex.spec, &u1);
        let vl = ViewLabel::build(&vs, &pg, VariantKind::QueryEfficient).unwrap();
        let mut w = BitWriter::new();
        vl.write_snapshot(&mut w);
        let bits = w.finish();
        for cut in 0..bits.len() {
            let mut short = BitWriter::new();
            for b in bits.iter().take(cut) {
                short.push_bit(b);
            }
            let shorter = short.finish();
            let _ = ViewLabel::read_snapshot(&mut BitReader::new(&shorter), g, &pg);
        }
    }

    #[test]
    fn variant_codes_roundtrip() {
        for kind in [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient]
        {
            assert_eq!(VariantKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(VariantKind::from_code(3), None);
    }

    #[test]
    fn unsafe_view_rejected() {
        let spec = wf_model::fixtures::unsafe_example();
        let pg = ProdGraph::new(&spec.grammar);
        let view = spec.default_view();
        let vs = ViewSpec::new(&spec, &view);
        assert!(matches!(
            ViewLabel::build(&vs, &pg, VariantKind::Default),
            Err(FvlError::Unsafe(_))
        ));
    }
}
