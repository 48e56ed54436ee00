//! The interned data-label store: dense [`ItemId`]s over trie-shared paths,
//! partitioned into copy-on-write shards.
//!
//! A provenance service holds the labels of *every* item of a run (often
//! millions) and serves queries against arbitrary pairs of them. Owning
//! [`DataLabel`]s share one path allocation per module instance (every port
//! of an instance has the same path), but each instance's path is still
//! stored whole, even though the paths of sibling and nested instances
//! share almost all of their edges — the paper itself observes that "the
//! size of φr(d) can be reduced almost by half by factoring out the common
//! prefix" (§4.2.2), and a run's labels collectively share far more than
//! pairwise prefixes.
//!
//! [`LabelStore`] exploits that: paths are interned into a trie keyed by
//! `(parent node, edge label)`, so every shared prefix is stored exactly
//! once per shard. A stored label is then two `(path node, port)` pairs,
//! and an [`ItemId`] is a dense index suitable for slicing, batching and
//! bitmap bookkeeping.
//!
//! # Sharding (the generational-engine contract)
//!
//! The store is a *persistent* (structure-sharing) data structure: items
//! are partitioned into fixed-capacity shards, each behind an `Arc`, and
//! the store itself is just the shard directory. The invariants
//! (DESIGN.md S10):
//!
//! * **Id ranges never straddle shards.** Every shard except the last
//!   holds exactly [`LabelStore::shard_capacity`] labels, so shard lookup
//!   is pure arithmetic (`id / capacity`) — no search, no extra memory
//!   traffic on the read path.
//! * **Trie prefix sharing is per-shard.** Each shard interns its own
//!   slice of the paths; nothing in a query ever reaches across shards,
//!   so a shard is immutable the moment it fills.
//! * **Only the tail shard interns.** The `(parent, edge) → node` map and
//!   the prefix cursors live in the open tail shard alone; a shard drops
//!   them when it fills (it is *sealed*), so a store keeps one interning
//!   map however many shards it holds.
//! * **Cloning is O(#shards), mutating is O(touched shards).** `Clone`
//!   copies the directory (one refcount bump per shard); an insert batch
//!   `Arc::make_mut`s only the tail shard(s) it lands in. This is what
//!   turns the generational writer's publish from an O(n) blob copy into
//!   an O(touched) increment — publish latency stays flat as the store
//!   grows to millions of items (`update_throughput` bench).
//!
//! Labels arrive in run order, so consecutive labels share almost all of
//! their path: an insert follows the previous label's node chain (the
//! prefix cursor) over the shared prefix and hashes only the edges past
//! it.
//!
//! The on-disk format is *unchanged* from the single-blob store:
//! [`LabelStore::write_snapshot`] maps the per-shard tries node by node
//! into the one creation-order trie of the §5 wire format (byte-identical
//! to what the pre-shard store wrote, since labels are always interned in
//! id order), and [`LabelStore::read_snapshot`] re-shards on load,
//! rebuilding every shard's nodes in the order a cold build creates them.
//! Save and load cost O(stored trie nodes + labels), not O(raw path
//! edges). Old streams load into sharded stores; new streams load in old
//! readers.

use crate::error::EngineError;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::convert::Infallible;
use std::io;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_bitio::{BitReader, BitWriter};
use wf_core::visibility::edge_visible;
use wf_core::{DataLabel, DecodeCtx, LabelCodec, LabelRef, PortLabel, PortRef};
use wf_model::{Grammar, ModuleId};
use wf_run::{try_path, EdgeLabel};
use wf_snapshot::{edge_target_module, SnapshotError};

/// Dense id of a stored data label (assigned in insertion order).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ItemId(pub u32);

/// Sentinel parent of the trie root (the empty path).
const ROOT: u32 = u32::MAX;

/// One stored label: `(path node, port)` per side, `None` mirroring
/// [`DataLabel`]'s boundary cases. Path nodes index the owning shard's
/// trie.
#[derive(Clone, Copy, PartialEq, Debug)]
struct StoredLabel {
    out: Option<(u32, u8)>,
    inp: Option<(u32, u8)>,
}

/// The interning state of the open tail shard: the `(parent, edge) → node`
/// index plus one prefix cursor per label side.
#[derive(Clone, Default)]
struct Interner {
    /// `(parent, edge) → node` — the interning index.
    map: HashMap<(u32, EdgeLabel), u32>,
    /// Per side (outputs, inputs): the `(edge, node)` chain of the last
    /// path interned on that side, root first. Each entry's node is the
    /// child of the previous entry's node along its edge, so the chain
    /// stands in for the map over any prefix a new path shares with it.
    cursors: [Vec<(EdgeLabel, u32)>; 2],
}

impl Interner {
    /// The index of an existing trie (a loaded tail shard's), with empty
    /// cursors.
    fn of(nodes: &[(u32, EdgeLabel)]) -> Self {
        let map = nodes.iter().enumerate().map(|(n, &key)| (key, n as u32)).collect();
        Self { map, cursors: Default::default() }
    }

    /// Interns `path` through cursor `side`, appending any missing node to
    /// `nodes` (which may hold at most `cap`); returns the path's node.
    /// Only the edges past the prefix shared with the cursor are hashed.
    fn try_intern(
        &mut self,
        nodes: &mut Vec<(u32, EdgeLabel)>,
        side: usize,
        path: &[EdgeLabel],
        cap: u32,
    ) -> Result<u32, EngineError> {
        let cursor = &mut self.cursors[side];
        let shared = cursor.iter().zip(path).take_while(|((c, _), e)| c == *e).count();
        cursor.truncate(shared);
        let mut cur = cursor.last().map_or(ROOT, |&(_, n)| n);
        for &e in &path[shared..] {
            cur = match self.map.entry((cur, e)) {
                Entry::Occupied(o) => *o.get(),
                Entry::Vacant(v) => {
                    let n = nodes.len() as u32;
                    if n >= cap {
                        return Err(EngineError::StoreFull {
                            what: "trie node",
                            capacity: cap as u64,
                        });
                    }
                    nodes.push((cur, e));
                    *v.insert(n)
                }
            };
            cursor.push((e, cur));
        }
        Ok(cur)
    }
}

// A trie node is 24 bytes: its parent plus a 16-byte edge. Every interned
// edge of a store costs one.
const _: () = assert!(std::mem::size_of::<(u32, EdgeLabel)>() == 24);

/// One fixed-capacity slice of the store: its labels plus the trie their
/// paths are interned into. Shards never reference one another, so a full
/// shard is immutable forever and shares structure across every generation
/// that contains it.
#[derive(Clone, Default)]
struct Shard {
    /// Trie node → (parent node, edge). Node ids are creation-ordered and
    /// local to this shard.
    nodes: Vec<(u32, EdgeLabel)>,
    /// The interning state while this shard is the open tail; `None` once
    /// it is full (sealed), since only the tail is ever inserted into.
    interner: Option<Interner>,
    labels: Vec<StoredLabel>,
    /// Total edges across this shard's labels *before* sharing (metric).
    raw_edges: usize,
}

impl Shard {
    /// An empty shard, open for inserts.
    fn open() -> Self {
        Self { interner: Some(Interner::default()), ..Self::default() }
    }

    /// The local node of merged-trie node `node` while this shard is
    /// rebuilt from a snapshot, creating the part of its path the shard
    /// lacks top-down — the order a cold build's insert creates it in.
    /// `local[m]` is `(stamp, local id)` for each merged node `m` already
    /// copied; `stamp` identifies this shard. `chain` is scratch.
    fn adopt(
        &mut self,
        node: u32,
        stamp: u32,
        merged: &[(u32, EdgeLabel)],
        local: &mut [(u32, u32)],
        chain: &mut Vec<u32>,
    ) -> u32 {
        chain.clear();
        let mut top = node;
        while top != ROOT && local[top as usize].0 != stamp {
            chain.push(top);
            top = merged[top as usize].0;
        }
        let mut cur = if top == ROOT { ROOT } else { local[top as usize].1 };
        for &m in chain.iter().rev() {
            let n = self.nodes.len() as u32;
            self.nodes.push((cur, merged[m as usize].1));
            local[m as usize] = (stamp, n);
            cur = n;
        }
        cur
    }

    /// The root→node path in one allocation: one walk to size it, one to
    /// write it leaf first.
    fn path(&self, node: u32) -> Arc<[EdgeLabel]> {
        let (mut len, mut up) = (0, node);
        while up != ROOT {
            len += 1;
            up = self.nodes[up as usize].0;
        }
        let Ok(path) = try_path::<Infallible>(len, |slots| {
            let mut node = node;
            for slot in slots.iter_mut().rev() {
                (node, *slot) = self.nodes[node as usize];
            }
            Ok(())
        });
        path
    }

    /// Writes the root→node path into `buf` (cleared first), the
    /// reusable-buffer form the serving path materializes into per-worker
    /// scratch vectors. The walk reads the path leaf first and hands each
    /// edge to `keep` as it reads it; at the first edge `keep` rejects it
    /// stops and returns `false`, leaving `buf` partial. Inlined into every
    /// fetch, like the fetches themselves, so each walk loops on
    /// registers rather than through a call.
    #[inline(always)]
    fn write_path(
        &self,
        mut node: u32,
        buf: &mut Vec<EdgeLabel>,
        keep: &mut impl FnMut(&EdgeLabel) -> bool,
    ) -> bool {
        buf.clear();
        while node != ROOT {
            let (parent, e) = self.nodes[node as usize];
            buf.push(e);
            if !keep(&e) {
                return false;
            }
            node = parent;
        }
        buf.reverse();
        true
    }
}

/// Interned label storage with shared-prefix paths and dense item ids,
/// partitioned into copy-on-write shards (see the module docs).
///
/// Cloning a store is the copy-on-write step of the generational engine:
/// the clone shares every shard with the original, so a writer can keep
/// interning into its copy — un-sharing only the shards it touches —
/// while readers serve from the original.
#[derive(Clone)]
pub struct LabelStore {
    /// The shard directory. Every shard but the last holds exactly
    /// `shard_capacity` labels.
    shards: Vec<Arc<Shard>>,
    shard_capacity: u32,
    /// Total stored labels (cached; equals the sum of shard lengths).
    len: usize,
}

impl LabelStore {
    /// Items per shard for stores built with [`LabelStore::new`]. A
    /// publish pays one ≤-capacity tail-shard copy plus an n/capacity
    /// directory clone; the directory clone's per-shard constant (Arc
    /// traffic on stage, publish and generation drop) is what shows up
    /// at the million-item end of the bench sweep, so the default sits
    /// above √n: 4096 keeps a 10⁶-item store at 256 shards and the
    /// whole cycle in the tens of microseconds at every swept size.
    pub const DEFAULT_SHARD_CAPACITY: u32 = 4096;

    pub fn new() -> Self {
        Self::with_shard_capacity(Self::DEFAULT_SHARD_CAPACITY)
    }

    /// A store whose shards hold `shard_capacity` labels each. Tiny
    /// capacities exercise shard boundaries in tests; `u32::MAX`
    /// effectively disables sharding (one ever-growing shard — the
    /// pre-shard store, used as the bench baseline and the differential
    /// reference).
    ///
    /// # Panics
    ///
    /// If `shard_capacity` is 0.
    pub fn with_shard_capacity(shard_capacity: u32) -> Self {
        assert!(shard_capacity >= 1, "shard capacity must be at least 1");
        Self { shards: Vec::new(), shard_capacity, len: 0 }
    }

    /// Items per shard of this store.
    pub fn shard_capacity(&self) -> u32 {
        self.shard_capacity
    }

    /// Number of shards currently in the directory.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// How many shards the id range `base_len..self.len()` spans — the
    /// shards a writer that staged exactly that increment had to touch
    /// (copy, or freshly create). What the `update_throughput` bench
    /// reports along its "touched shards" axis.
    pub fn shards_touched_since(&self, base_len: usize) -> usize {
        if self.len <= base_len {
            return 0;
        }
        let cap = self.shard_capacity as usize;
        (self.len - 1) / cap - base_len / cap + 1
    }

    /// Interns one label; returns its dense id. Insertion order defines the
    /// id sequence, so inserting a run's labels in data-item order makes
    /// `ItemId(i)` coincide with the run's `DataId(i)`.
    ///
    /// Exhausting the store's `u32` id space (≈ 4 × 10⁹ trie nodes or
    /// labels) is a typed [`EngineError::StoreFull`], so an ingest service
    /// survives a full store. A failed insert stores no label; path nodes
    /// interned before the overflow was detected remain in the tail
    /// shard's trie (they are consistent and re-usable — the next
    /// successful insert of a sharing label picks them up).
    pub fn try_insert(&mut self, d: &DataLabel) -> Result<ItemId, EngineError> {
        self.try_insert_bounded(d, ROOT)
    }

    /// Capacity-parameterized core of [`LabelStore::try_insert`]; `cap` is
    /// `ROOT` in production and tiny in tests (a 2³²-node trie cannot be
    /// built to exercise the overflow path for real). `cap` bounds the
    /// total label count and each shard's trie node count.
    pub(crate) fn try_insert_bounded(
        &mut self,
        d: &DataLabel,
        cap: u32,
    ) -> Result<ItemId, EngineError> {
        if self.len as u64 >= cap as u64 {
            return Err(EngineError::StoreFull { what: "label id", capacity: cap as u64 });
        }
        let id = ItemId(self.len as u32);
        // Open a fresh shard when the tail is at capacity — never earlier,
        // so every non-tail shard is exactly full and id→shard stays pure
        // arithmetic.
        if self.shards.last().is_none_or(|s| s.labels.len() as u64 >= self.shard_capacity as u64) {
            self.shards.push(Arc::new(Shard::open()));
        }
        let tail = self.shards.last_mut().expect("tail shard was just ensured");
        // The copy-on-write step: the first insert into a shard some
        // published generation still shares pays the copy; every later
        // insert finds the Arc unique and mutates in place.
        let shard = Arc::make_mut(tail);
        let interner = shard.interner.as_mut().expect("the tail shard stays open until it fills");
        let out = match &d.out {
            Some(p) => Some((interner.try_intern(&mut shard.nodes, 0, &p.path, cap)?, p.port)),
            None => None,
        };
        let inp = match &d.inp {
            Some(p) => Some((interner.try_intern(&mut shard.nodes, 1, &p.path, cap)?, p.port)),
            None => None,
        };
        // Count raw edges only once the label is definitely stored, so a
        // rejected insert cannot skew the sharing metric.
        shard.raw_edges +=
            d.out.as_ref().map_or(0, |p| p.path.len()) + d.inp.as_ref().map_or(0, |p| p.path.len());
        shard.labels.push(StoredLabel { out, inp });
        if shard.labels.len() as u64 >= self.shard_capacity as u64 {
            shard.interner = None;
        }
        self.len += 1;
        Ok(id)
    }

    /// Interns a slice of labels, returning their ids (in order). Stops at
    /// the first label that cannot be interned, leaving every earlier
    /// label stored. The error is [`EngineError::BatchStoreFull`], carrying
    /// the index of the label that failed — `labels[..index]` are stored,
    /// so a caller can retry `labels[index..]` against a fresh store (or
    /// shard) without double-inserting the prefix.
    pub fn try_insert_all(&mut self, labels: &[DataLabel]) -> Result<Vec<ItemId>, EngineError> {
        self.try_insert_all_bounded(labels, ROOT)
    }

    /// Capacity-parameterized core of [`LabelStore::try_insert_all`] (see
    /// [`LabelStore::try_insert_bounded`]).
    pub(crate) fn try_insert_all_bounded(
        &mut self,
        labels: &[DataLabel],
        cap: u32,
    ) -> Result<Vec<ItemId>, EngineError> {
        labels
            .iter()
            .enumerate()
            .map(|(index, d)| self.try_insert_bounded(d, cap).map_err(|e| e.at_batch_index(index)))
            .collect()
    }

    /// Number of stored labels.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(stored trie edges, raw label edges)` across all shards — how much
    /// the shared-prefix tries saved over per-label path storage.
    pub fn edge_stats(&self) -> (usize, usize) {
        self.shards
            .iter()
            .fold((0, 0), |(nodes, raw), s| (nodes + s.nodes.len(), raw + s.raw_edges))
    }

    /// The shard holding `id`, and `id`'s label index within it.
    fn locate(&self, id: ItemId) -> (&Shard, usize) {
        let shard = &self.shards[(id.0 / self.shard_capacity) as usize];
        (shard, (id.0 % self.shard_capacity) as usize)
    }

    /// A borrowed [`LabelRef`] over caller-owned path buffers — the form
    /// [`wf_core::pi_with`] consumes. Ports are copied; paths are
    /// materialized into `out_buf` / `inp_buf` (tiny: label paths are
    /// `O(|Δ|)` long, Lemma 4 — reachability matrices dwarf this). Shard
    /// lookup is one divide; the walk itself touches a single shard.
    ///
    /// Queries do not come through here: [`EngineCore`](crate::EngineCore)
    /// fetches each item through this same walk with the view's per-edge
    /// visibility rule, stopping at the first edge outside the view. This
    /// form reads whole labels, for the delta writer and for callers that
    /// size or time the store.
    ///
    /// # Panics
    ///
    /// If `id` is not below [`len`](Self::len): the id is not checked. An
    /// id from outside the engine goes through
    /// [`EngineCore::try_query`](crate::EngineCore::try_query), which
    /// rejects it as a typed error first.
    pub fn label_ref<'b>(
        &self,
        id: ItemId,
        out_buf: &'b mut Vec<EdgeLabel>,
        inp_buf: &'b mut Vec<EdgeLabel>,
    ) -> LabelRef<'b> {
        self.fetch(id, out_buf, inp_buf, |_| true)
            .expect("a walk that keeps every edge reads the whole label")
    }

    /// [`label_ref`](Self::label_ref) under a view: each edge goes through
    /// §5's [`edge_visible`] as the walk reads it, and the fetch answers
    /// `None` at the first edge outside the view, reading no later edge.
    /// `Some` exactly when [`wf_core::is_visible_ref`] holds for
    /// `label_ref`'s label, and then that label. `id` is unchecked, as for
    /// `label_ref`.
    #[inline(always)]
    pub(crate) fn visible_ref<'b>(
        &self,
        id: ItemId,
        ctx: &DecodeCtx<'_>,
        out_buf: &'b mut Vec<EdgeLabel>,
        inp_buf: &'b mut Vec<EdgeLabel>,
    ) -> Option<LabelRef<'b>> {
        self.fetch(id, out_buf, inp_buf, |e| edge_visible(e, ctx.vl, ctx.pg))
    }

    /// The one label walk behind both fetches: the outputs side, then the
    /// inputs side, each leaf first through [`Shard::write_path`]. `None`
    /// as soon as `keep` rejects an edge.
    #[inline(always)]
    fn fetch<'b>(
        &self,
        id: ItemId,
        out_buf: &'b mut Vec<EdgeLabel>,
        inp_buf: &'b mut Vec<EdgeLabel>,
        mut keep: impl FnMut(&EdgeLabel) -> bool,
    ) -> Option<LabelRef<'b>> {
        let (shard, local) = self.locate(id);
        let StoredLabel { out, inp } = shard.labels[local];
        let mut walk = |side: Option<(u32, u8)>, buf: &mut Vec<EdgeLabel>| {
            side.is_none_or(|(node, _)| shard.write_path(node, buf, &mut keep))
        };
        if !walk(out, out_buf) || !walk(inp, inp_buf) {
            return None;
        }
        Some(LabelRef {
            out: out.map(|(_, port)| PortRef { path: &*out_buf, port }),
            inp: inp.map(|(_, port)| PortRef { path: &*inp_buf, port }),
        })
    }

    /// Serializes the store in the v1 (pre-shard) wire format: the trie
    /// nodes in creation order (so shared prefixes stay shared on disk —
    /// each node is its parent link plus one edge in the §5 wire format),
    /// then the dense label table, then the raw-edge metric. Per-shard
    /// tries are merged into one creation-order trie by mapping each
    /// shard's nodes, in creation order, through a local → merged table:
    /// one lookup per stored node, and each label is then written through
    /// that table with no path walk. Labels are only ever interned in id
    /// order, so this merged trie is *identical* to the one re-interning
    /// every label in id order builds — what the pre-shard store wrote —
    /// and snapshots stay byte-compatible in both directions.
    /// Node references use a γ-coded `root+1 / node+2` scheme because a
    /// stored path can legitimately be the *empty* path (boundary items of
    /// the start production point at the trie root).
    pub fn write_snapshot(&self, codec: &LabelCodec, w: &mut BitWriter) {
        let mut merged: Vec<(u32, EdgeLabel)> = Vec::new();
        let mut index: HashMap<(u32, EdgeLabel), u32> = HashMap::new();
        let mut to_merged: Vec<u32> = Vec::new();
        let mut labels: Vec<StoredLabel> = Vec::with_capacity(self.len);
        let mut raw_edges = 0usize;
        for shard in &self.shards {
            raw_edges += shard.raw_edges;
            to_merged.clear();
            let map = |to_merged: &[u32], node: u32| {
                if node == ROOT {
                    ROOT
                } else {
                    to_merged[node as usize]
                }
            };
            for &(parent, e) in &shard.nodes {
                let key = (map(&to_merged, parent), e);
                let next = merged.len() as u32;
                let n = *index.entry(key).or_insert_with(|| {
                    merged.push(key);
                    next
                });
                to_merged.push(n);
            }
            let side = |side: Option<(u32, u8)>| side.map(|(n, port)| (map(&to_merged, n), port));
            labels.extend(
                shard.labels.iter().map(|l| StoredLabel { out: side(l.out), inp: side(l.inp) }),
            );
        }
        assert!(merged.len() < ROOT as usize, "merged trie cannot exceed the node id space");
        w.write_gamma(merged.len() as u64 + 1);
        for &(parent, e) in &merged {
            w.write_gamma(node_code(parent));
            codec.write_edge(w, &e);
        }
        w.write_gamma(labels.len() as u64 + 1);
        for l in &labels {
            for side in [l.out, l.inp] {
                w.push_bit(side.is_some());
                if let Some((node, port)) = side {
                    w.write_gamma(node_code(node));
                    w.write_bits(port as u64, 8);
                }
            }
        }
        w.write_gamma(raw_edges as u64 + 1);
    }

    /// Inverse of [`LabelStore::write_snapshot`], re-sharding at
    /// [`LabelStore::DEFAULT_SHARD_CAPACITY`] — see
    /// [`LabelStore::read_snapshot_with_capacity`].
    pub fn read_snapshot(
        r: &mut BitReader<'_>,
        codec: &LabelCodec,
        grammar: &Grammar,
        pg: &ProdGraph,
    ) -> Result<Self, SnapshotError> {
        Self::read_snapshot_with_capacity(r, codec, grammar, pg, Self::DEFAULT_SHARD_CAPACITY)
    }

    /// Inverse of [`LabelStore::write_snapshot`]. The wire format carries
    /// one merged trie; the store is rebuilt into shards of
    /// `shard_capacity` labels (in id order, so ids come back identical)
    /// through a merged → local node table stamped per shard: each label
    /// copies the part of its paths its shard lacks, top-down, so every
    /// shard gets exactly the nodes, in exactly the order, a cold build
    /// of the same labels creates. Nothing is hashed per label and no
    /// path is materialized; only the tail shard, the one later inserts
    /// reach, gets its interning map back. Decoding also validates the
    /// trie: forward parent references and duplicate `(parent, edge)`
    /// keys are rejected as malformed. Every edge's fields are
    /// range-checked against the grammar and every stored port against
    /// its path's terminal module, so nothing a later query indexes with
    /// can be out of range — bad bytes fail *here*, typed, not inside π.
    /// No container is reserved beyond what the remaining bits could
    /// encode, nor beyond 2^12 slots: the node containers grow as nodes
    /// decode, and the duplicate-edge set is sized to the nodes actually
    /// read, so a forged count fails before it can allocate for it. A zero
    /// `shard_capacity` is rejected before
    /// anything is read, as [`SnapshotError::Io`] of kind
    /// [`io::ErrorKind::InvalidInput`].
    pub fn read_snapshot_with_capacity(
        r: &mut BitReader<'_>,
        codec: &LabelCodec,
        grammar: &Grammar,
        pg: &ProdGraph,
        shard_capacity: u32,
    ) -> Result<Self, SnapshotError> {
        check_shard_capacity(shard_capacity)?;
        let cycles = pg
            .cycles()
            .map_err(|_| SnapshotError::Malformed("production graph has no cycle tables"))?;
        let node_count = (r.read_gamma()? - 1) as usize;
        if node_count >= ROOT as usize {
            return Err(SnapshotError::Malformed("trie larger than the id space"));
        }
        // A node is at least a 1-bit γ parent code and a 1-bit edge tag;
        // the absolute cap keeps a forged count over a large payload from
        // reserving for nodes that fail to decode. Past it, both containers
        // grow as nodes decode.
        let reserve = node_count.min(r.remaining() / 2).min(1 << 12);
        let mut nodes = Vec::with_capacity(reserve);
        // Per trie node: the module its path ends at — what its labels'
        // ports index into (the empty path, i.e. the root, ends at the
        // start module) — and its depth, the path's length in edges.
        let mut node_info: Vec<(ModuleId, u32)> = Vec::with_capacity(reserve);
        let info = |node_info: &[(ModuleId, u32)], node: u32| {
            if node == ROOT {
                (grammar.start(), 0)
            } else {
                node_info[node as usize]
            }
        };
        for n in 0..node_count {
            let parent = decode_node(r.read_gamma()?, n)?;
            let e = codec.read_edge(r)?;
            // Each edge must continue its parent's path — the chaining rule
            // shared with the delta-label reader
            // ([`wf_snapshot::edge_target_module`]); without it a forged
            // trie would feed π mismatched matrix dimensions.
            let (parent_module, parent_depth) = info(&node_info, parent);
            let module = edge_target_module(grammar, cycles, parent_module, e)?;
            nodes.push((parent, e));
            node_info.push((module, parent_depth + 1));
        }
        // Duplicate keys are checked once the whole node section decoded,
        // against one exact reservation, before any label is read.
        let mut seen = HashSet::with_capacity(nodes.len());
        if !nodes.iter().all(|&key| seen.insert(key)) {
            return Err(SnapshotError::Malformed("duplicate trie edge"));
        }
        drop(seen);
        let label_count = (r.read_gamma()? - 1) as usize;
        let mut shards: Vec<Shard> = Vec::new();
        let mut local = vec![(u32::MAX, 0u32); nodes.len()];
        let mut chain = Vec::new();
        let mut raw_edges = 0usize;
        for id in 0..label_count {
            let side = |r: &mut BitReader<'_>,
                        outputs: bool|
             -> Result<Option<(u32, u8)>, SnapshotError> {
                if !r.read_bit()? {
                    return Ok(None);
                }
                let node = decode_node(r.read_gamma()?, node_count)?;
                let port = r.read_bits(8)? as u8;
                let sig = grammar.sig(info(&node_info, node).0);
                let arity = if outputs { sig.outputs() } else { sig.inputs() };
                if port as usize >= arity {
                    return Err(SnapshotError::Malformed("label port out of range"));
                }
                Ok(Some((node, port)))
            };
            let out = side(r, true)?;
            let inp = side(r, false)?;
            if out.is_none() && inp.is_none() {
                return Err(SnapshotError::Malformed("label with no endpoint"));
            }
            if id >= ROOT as usize {
                return Err(SnapshotError::Malformed("store overflow while re-sharding"));
            }
            if id % shard_capacity as usize == 0 {
                shards.push(Shard::default());
            }
            let stamp = (shards.len() - 1) as u32;
            let shard = shards.last_mut().expect("a shard was opened for this label");
            let edges: usize =
                [out, inp].into_iter().flatten().map(|(n, _)| info(&node_info, n).1 as usize).sum();
            shard.raw_edges += edges;
            raw_edges += edges;
            let mut adopt = |side: Option<(u32, u8)>| {
                side.map(|(n, port)| (shard.adopt(n, stamp, &nodes, &mut local, &mut chain), port))
            };
            let (out, inp) = (adopt(out), adopt(inp));
            shard.labels.push(StoredLabel { out, inp });
        }
        // The metric is a pure function of the stored labels; a stream
        // whose recorded value disagrees with the labels it carries was
        // not written by any honest writer.
        if (r.read_gamma()? - 1) as usize != raw_edges {
            return Err(SnapshotError::Malformed("raw edge metric disagrees with stored labels"));
        }
        if let Some(tail) = shards.last_mut().filter(|s| s.labels.len() < shard_capacity as usize) {
            tail.interner = Some(Interner::of(&tail.nodes));
        }
        Ok(Self {
            shards: shards.into_iter().map(Arc::new).collect(),
            shard_capacity,
            len: label_count,
        })
    }

    /// Rebuilds the owning [`DataLabel`], one path allocation per side, for
    /// callers that need an owned label: recovery checks, examples and
    /// tests. Serving and publishing read labels through
    /// [`label_ref`](Self::label_ref) instead, which allocates nothing.
    ///
    /// # Panics
    ///
    /// If `id` is not below [`len`](Self::len), as
    /// [`label_ref`](Self::label_ref) does; the checked path is
    /// [`EngineCore::try_query`](crate::EngineCore::try_query).
    pub fn materialize(&self, id: ItemId) -> DataLabel {
        let (shard, local) = self.locate(id);
        let stored = shard.labels[local];
        let port = |(node, port): (u32, u8)| PortLabel::new(shard.path(node), port);
        DataLabel { out: stored.out.map(port), inp: stored.inp.map(port) }
    }
}

impl Default for LabelStore {
    fn default() -> Self {
        Self::new()
    }
}

/// The typed form of [`LabelStore::with_shard_capacity`]'s assert, for the
/// `Result`-returning entry points that take a shard capacity: 0 is
/// [`SnapshotError::Io`] of kind [`io::ErrorKind::InvalidInput`].
pub(crate) fn check_shard_capacity(shard_capacity: u32) -> Result<(), SnapshotError> {
    if shard_capacity == 0 {
        return Err(SnapshotError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            "shard capacity must be at least 1",
        )));
    }
    Ok(())
}

/// γ-friendly code of a trie node reference: `1` for the root sentinel,
/// `node + 2` otherwise (γ codes positive integers only).
fn node_code(node: u32) -> u64 {
    if node == ROOT {
        1
    } else {
        node as u64 + 2
    }
}

/// Inverse of [`node_code`]; `bound` is the number of already-known nodes,
/// so parents reference strictly earlier nodes and labels reference any
/// node of the finished trie.
fn decode_node(code: u64, bound: usize) -> Result<u32, SnapshotError> {
    if code == 1 {
        return Ok(ROOT);
    }
    let node = code - 2;
    if node >= bound as u64 {
        return Err(SnapshotError::Malformed("trie node reference out of range"));
    }
    Ok(node as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DurableEngine, EngineWriter, LiveEngine};
    use rand::{rngs::StdRng, SeedableRng};
    use wf_core::{is_visible_ref, Fvl, VariantKind};
    use wf_model::fixtures::paper_example;
    use wf_model::View;
    use wf_run::fixtures::figure3_run;
    use wf_snapshot::MemStorage;

    #[test]
    fn roundtrips_every_figure3_label() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();
        assert_eq!(store.len(), run.item_count());
        for (i, d) in labeler.labels().iter().enumerate() {
            assert_eq!(&store.materialize(ids[i]), d, "item {i}");
        }
    }

    /// The same roundtrip with a shard capacity small enough that every
    /// shard boundary of the Figure 3 run is crossed: ids stay dense,
    /// non-tail shards are exactly full, and every label materializes
    /// identically from whichever shard it landed in.
    #[test]
    fn tiny_shards_roundtrip_across_boundaries() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        for cap in [1u32, 2, 3, 7] {
            let mut store = LabelStore::with_shard_capacity(cap);
            let ids = store.try_insert_all(labeler.labels()).unwrap();
            let n = labeler.labels().len();
            assert_eq!(store.len(), n);
            assert_eq!(store.shard_count(), n.div_ceil(cap as usize), "cap {cap}");
            for (i, d) in labeler.labels().iter().enumerate() {
                assert_eq!(&store.materialize(ids[i]), d, "cap {cap} item {i}");
            }
            let (mut ob, mut ib) = (Vec::new(), Vec::new());
            for (i, d) in labeler.labels().iter().enumerate() {
                let r = store.label_ref(ids[i], &mut ob, &mut ib);
                assert_eq!(r.out.is_some(), d.out.is_some(), "cap {cap} item {i}");
                assert_eq!(r.inp.is_some(), d.inp.is_some(), "cap {cap} item {i}");
            }
        }
    }

    /// Cloning shares every shard; inserting into the clone un-shares only
    /// the tail — the O(touched) contract the generational writer's
    /// publish cost rests on.
    #[test]
    fn clone_shares_shards_and_insert_touches_only_the_tail() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        let mut store = LabelStore::with_shard_capacity(8);
        store.try_insert_all(&labels).unwrap();
        let shard_count = store.shard_count();
        assert!(shard_count >= 3, "the Figure 3 run should span several 8-item shards");

        let mut staged = store.clone();
        for (a, b) in store.shards.iter().zip(&staged.shards) {
            assert!(Arc::ptr_eq(a, b), "a clone must share every shard");
        }
        let base_len = store.len();
        staged.try_insert(&labels[0]).unwrap();
        let touched = staged.shards_touched_since(base_len);
        assert!(touched <= 2, "one insert touches at most the tail and a fresh shard");
        // Every full shard below the touched range is still the same Arc.
        let untouched = staged.shard_count() - touched;
        for (a, b) in store.shards.iter().zip(&staged.shards).take(untouched) {
            assert!(Arc::ptr_eq(a, b), "inserts must not copy untouched shards");
        }
        // The original is unaffected (readers never see staged state).
        assert_eq!(store.len(), base_len);
    }

    #[test]
    fn label_refs_match_owned_refs() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();
        let (mut ob, mut ib) = (Vec::new(), Vec::new());
        for (i, d) in labeler.labels().iter().enumerate() {
            let r = store.label_ref(ids[i], &mut ob, &mut ib);
            assert_eq!(r.out.is_some(), d.out.is_some());
            if let (Some(stored), Some(owned)) = (r.out, d.out.as_ref()) {
                assert_eq!(stored.path, &owned.path[..]);
                assert_eq!(stored.port, owned.port);
            }
            if let (Some(stored), Some(owned)) = (r.inp, d.inp.as_ref()) {
                assert_eq!(stored.path, &owned.path[..]);
                assert_eq!(stored.port, owned.port);
            }
        }
    }

    /// Checks [`LabelStore::visible_ref`] on every item of `labels` under
    /// each view against `label_ref` + `is_visible_ref`, and the walk
    /// behind it against counting predicates. Returns how many (item,
    /// view) fetches were hidden.
    fn check_visible_fetch(fvl: &Fvl<'_>, labels: &[DataLabel], views: &[View]) -> usize {
        let mut store = LabelStore::with_shard_capacity(7);
        let ids = store.try_insert_all(labels).unwrap();
        let (mut ob, mut ib, mut vo, mut vi) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // The order the walk reads a label in: the outputs side, then the
        // inputs side, each leaf first.
        let leaf_first = |d: &DataLabel| -> Vec<EdgeLabel> {
            d.out.iter().chain(&d.inp).flat_map(|p| p.path.iter().rev().copied()).collect()
        };
        let sides =
            |r: LabelRef<'_>| [r.out, r.inp].map(|side| side.map(|p| (p.path.to_vec(), p.port)));
        // Rejecting the edge read at position `j` stops the walk right
        // there, on either side.
        for (&id, d) in ids.iter().zip(labels) {
            let edges = leaf_first(d);
            for j in 0..edges.len() {
                let mut seen = Vec::new();
                let fetched = store.fetch(id, &mut vo, &mut vi, |e| {
                    seen.push(*e);
                    seen.len() <= j
                });
                assert!(fetched.is_none(), "{id:?} position {j}");
                assert_eq!(seen, edges[..=j], "{id:?} position {j}");
            }
        }
        let mut hidden = 0;
        for view in views {
            let vl = fvl.label_view(view, VariantKind::Default).unwrap();
            let ctx = DecodeCtx::new(&fvl.spec().grammar, fvl.prod_graph(), &vl);
            for (&id, d) in ids.iter().zip(labels) {
                let whole = store.label_ref(id, &mut ob, &mut ib);
                let visible = is_visible_ref(whole, &vl, ctx.pg);
                match store.visible_ref(id, &ctx, &mut vo, &mut vi) {
                    Some(fetched) => {
                        assert!(visible, "{id:?} is hidden yet fetched");
                        assert_eq!(sides(fetched), sides(whole), "{id:?}");
                    }
                    None => assert!(!visible, "{id:?} is visible yet not fetched"),
                }
                // Under the view rule the walk sees the edges up to and
                // including the first one outside the view, and no more.
                let edges = leaf_first(d);
                let keep = |e: &EdgeLabel| edge_visible(e, &vl, ctx.pg);
                let cut = edges.iter().position(|e| !keep(e)).map_or(edges.len(), |i| i + 1);
                let mut seen = Vec::new();
                store.fetch(id, &mut vo, &mut vi, |e| {
                    seen.push(*e);
                    keep(e)
                });
                assert_eq!(seen, edges[..cut], "{id:?}");
                hidden += usize::from(!visible);
            }
        }
        hidden
    }

    /// The serving fetch is `label_ref` and `is_visible_ref` in one walk,
    /// cut short at the first edge outside the view: on the Figure 3 run
    /// (U1 and U2) and a sampled BioAID run (default view and a
    /// random safe view).
    #[test]
    fn visible_ref_is_label_ref_when_visible_and_stops_at_the_first_hidden_edge() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let views = [ex.view_u1(), ex.view_u2()]; // U1 is the default view
        let hidden = check_visible_fetch(&fvl, fvl.labeler(&run).labels(), &views);
        assert!(hidden > 0, "U1 and U2 hide items of the Figure 3 run");

        let w = wf_workloads::bioaid(1);
        let fvl = Fvl::new(&w.spec).unwrap();
        let mut rng = StdRng::seed_from_u64(26);
        let (_, run) = wf_workloads::sample::sample_run(&w, fvl.prod_graph(), &mut rng, 2_000);
        let views = [w.spec.default_view(), wf_workloads::views::random_safe_view(&w, &mut rng, 8)];
        let hidden = check_visible_fetch(&fvl, fvl.labeler(&run).labels(), &views);
        assert!(hidden > 0, "a size-8 view hides part of the run");
    }

    #[test]
    fn snapshot_roundtrips_store_and_rebuilds_intern() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        let ids = store.try_insert_all(labeler.labels()).unwrap();

        let mut w = BitWriter::new();
        store.write_snapshot(fvl.codec(), &mut w);
        let bits = w.finish();
        let pg = fvl.prod_graph();
        let mut r = BitReader::new(&bits);
        let back = LabelStore::read_snapshot(&mut r, fvl.codec(), &ex.spec.grammar, pg).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.len(), store.len());
        assert_eq!(back.edge_stats(), store.edge_stats());
        for &id in &ids {
            assert_eq!(back.materialize(id), store.materialize(id), "{id:?}");
        }
        // The rebuilt intern map must keep interning consistently: inserting
        // an existing label afresh reuses the shared trie (no new nodes).
        let mut grown = back;
        let (nodes_before, _) = grown.edge_stats();
        grown.try_insert(&store.materialize(ids[0])).unwrap();
        assert_eq!(grown.edge_stats().0, nodes_before, "re-insert must not grow the trie");
    }

    /// The wire format is shard-agnostic: a store sliced into tiny shards
    /// serializes to the exact bytes the single-shard (pre-shard, PR-5)
    /// store writes, and both load back answer-identically at any
    /// capacity. This is the byte-compatibility contract of DESIGN.md S10.
    #[test]
    fn snapshot_bytes_are_identical_across_shard_capacities() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        let snapshot = |cap: u32| {
            let mut store = LabelStore::with_shard_capacity(cap);
            store.try_insert_all(&labels).unwrap();
            let mut w = BitWriter::new();
            store.write_snapshot(fvl.codec(), &mut w);
            w.finish()
        };
        let single = snapshot(u32::MAX);
        for cap in [1u32, 3, 8] {
            assert_eq!(snapshot(cap), single, "cap {cap} must write identical bytes");
        }
        // Loading re-shards at the requested capacity without changing any
        // label.
        let pg = fvl.prod_graph();
        let mut r = BitReader::new(&single);
        let back =
            LabelStore::read_snapshot_with_capacity(&mut r, fvl.codec(), &ex.spec.grammar, pg, 3)
                .unwrap();
        assert_eq!(back.shard_capacity(), 3);
        assert_eq!(back.shard_count(), labels.len().div_ceil(3));
        for (i, d) in labels.iter().enumerate() {
            assert_eq!(&back.materialize(ItemId(i as u32)), d, "item {i}");
        }
    }

    #[test]
    fn snapshot_rejects_structural_corruption() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let g = &ex.spec.grammar;
        let pg = fvl.prod_graph();
        let read = |bits: &wf_bitio::BitVec| {
            LabelStore::read_snapshot(&mut BitReader::new(bits), fvl.codec(), g, pg)
        };
        // A forward parent reference (node 0 pointing at node 5) is invalid.
        let mut w = BitWriter::new();
        w.write_gamma(2); // one node
        w.write_gamma(7); // parent = 5: out of range for node 0
        fvl.codec().write_edge(&mut w, &EdgeLabel::Plain { k: wf_model::ProdId(0), i: 0 });
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A label with neither endpoint is invalid.
        let mut w = BitWriter::new();
        w.write_gamma(1); // zero nodes
        w.write_gamma(2); // one label
        w.push_bit(false);
        w.push_bit(false);
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // An edge whose position is past its own production's RHS is
        // invalid even though it fits the codec's fixed field width (sized
        // by the grammar-wide maximum RHS).
        let (k_small, n_small) = g
            .productions()
            .map(|(k, p)| (k, p.rhs.node_count()))
            .find(|&(_, n)| n < g.max_rhs_len())
            .expect("paper grammar has productions below the max RHS length");
        let mut w = BitWriter::new();
        w.write_gamma(2); // one node
        w.write_gamma(1); // parent = root
        fvl.codec().write_edge(&mut w, &EdgeLabel::Plain { k: k_small, i: n_small as u32 });
        w.write_gamma(1); // zero labels
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A boundary label whose port is past the start module's arity is
        // invalid (ports index signature matrices at query time).
        let mut w = BitWriter::new();
        w.write_gamma(1); // zero nodes
        w.write_gamma(2); // one label
        w.push_bit(false); // no out side
        w.push_bit(true); // inp side at the root...
        w.write_gamma(1); // ...node = ROOT (empty path, start module)
        w.write_bits(200, 8); // ...port 200
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A lying raw-edge metric (the labels sum to something else) is
        // invalid: the metric is derivable, so a mismatch proves forgery.
        let ex_store = {
            let (run, _) = figure3_run(&ex);
            let labeler = fvl.labeler(&run);
            let mut s = LabelStore::new();
            s.try_insert_all(labeler.labels()).unwrap();
            s
        };
        let mut w = BitWriter::new();
        ex_store.write_snapshot(fvl.codec(), &mut w);
        let honest = w.finish();
        // A repeated `(parent, edge)` key is invalid: the trie holds each
        // path once. Write the honest trie's first node twice.
        let mut r = BitReader::new(&honest);
        r.read_gamma().unwrap();
        let parent = r.read_gamma().unwrap();
        let e = fvl.codec().read_edge(&mut r).unwrap();
        let mut w = BitWriter::new();
        w.write_gamma(3); // two nodes
        for _ in 0..2 {
            w.write_gamma(parent);
            fvl.codec().write_edge(&mut w, &e);
        }
        w.write_gamma(1); // zero labels
        w.write_gamma(1);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed("duplicate trie edge"))));
        // Rewrite just the trailing metric.
        let mut r = BitReader::new(&honest);
        let mut forged = BitWriter::new();
        let node_count = r.read_gamma().unwrap() - 1;
        forged.write_gamma(node_count + 1);
        for _ in 0..node_count {
            forged.write_gamma(r.read_gamma().unwrap());
            let e = fvl.codec().read_edge(&mut r).unwrap();
            fvl.codec().write_edge(&mut forged, &e);
        }
        let label_count = r.read_gamma().unwrap() - 1;
        forged.write_gamma(label_count + 1);
        for _ in 0..label_count {
            for _ in 0..2 {
                let present = r.read_bit().unwrap();
                forged.push_bit(present);
                if present {
                    forged.write_gamma(r.read_gamma().unwrap());
                    forged.write_bits(r.read_bits(8).unwrap(), 8);
                }
            }
        }
        let true_metric = r.read_gamma().unwrap();
        forged.write_gamma(true_metric + 100);
        assert!(matches!(read(&forged.finish()), Err(SnapshotError::Malformed(_))));
    }

    /// Id-space exhaustion must surface as a typed [`EngineError::StoreFull`]
    /// through the `try_*` path (the panicking forms document the same
    /// contract). A 2³²-node trie cannot be built in a test, so the
    /// capacity-parameterized core is exercised with a tiny bound; the
    /// public path uses the same code with `cap = ROOT`.
    #[test]
    fn overflow_is_a_typed_error_through_try_insert() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let labels = labeler.labels();

        // A bound big enough for the first label but not the whole run.
        let mut store = LabelStore::new();
        let mut full = None;
        for (i, d) in labels.iter().enumerate() {
            match store.try_insert_bounded(d, 4) {
                Ok(id) => assert_eq!(id.0 as usize, i, "ids stay dense until overflow"),
                Err(e) => {
                    assert!(
                        matches!(e, EngineError::StoreFull { capacity: 4, .. }),
                        "expected StoreFull, got {e:?}"
                    );
                    full = Some(i);
                    break;
                }
            }
        }
        let failed_at = full.expect("a 4-node budget cannot hold the Figure 3 run");
        // The failed insert stored no label; the store stays consistent
        // and serviceable (earlier labels still materialize).
        assert_eq!(store.len(), failed_at);
        for (i, d) in labels.iter().enumerate().take(failed_at) {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
        // The unbounded path accepts the same labels fine.
        assert!(store.try_insert(&labels[failed_at]).is_ok());
    }

    /// Batch inserts report *which* label hit the capacity wall — the
    /// regression pin for the retry contract, placed at an exact shard
    /// boundary so the failing index is also the first id of a shard that
    /// never got created.
    #[test]
    fn batch_overflow_reports_the_failing_index_at_a_shard_boundary() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        assert!(labels.len() >= 6, "the Figure 3 run has enough labels for two shards");

        // Shards of 2, id budget of exactly 4: the batch fails at index 4,
        // precisely where shard 2 would have to open.
        let mut store = LabelStore::with_shard_capacity(2);
        let err = store.try_insert_all_bounded(&labels, 4).expect_err("the budget must run out");
        match err {
            EngineError::BatchStoreFull { index, what, capacity } => {
                assert_eq!(index, 4, "the failing label's batch index");
                assert_eq!(what, "label id");
                assert_eq!(capacity, 4);
            }
            other => panic!("expected BatchStoreFull, got {other:?}"),
        }
        // The prefix is stored: exactly two full shards, ids 0..4.
        assert_eq!(store.len(), 4);
        assert_eq!(store.shard_count(), 2);
        for (i, d) in labels.iter().enumerate().take(4) {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
        // The reported index is exactly where the caller resumes: retrying
        // `labels[index..]` stores the remainder with densely continuing
        // ids and no duplicates.
        let resumed = store.try_insert_all(&labels[4..]).expect("an unbounded retry succeeds");
        assert_eq!(resumed.first(), Some(&ItemId(4)));
        assert_eq!(store.len(), labels.len());
        for (i, d) in labels.iter().enumerate() {
            assert_eq!(&store.materialize(ItemId(i as u32)), d);
        }
    }

    #[test]
    fn trie_shares_prefixes() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let mut store = LabelStore::new();
        store.try_insert_all(labeler.labels()).unwrap();
        let (stored, raw) = store.edge_stats();
        assert!(
            stored * 2 < raw,
            "trie should at least halve path storage: {stored} stored vs {raw} raw"
        );
    }

    /// Figure 3's labels, and a sampled BioAID run large enough that every
    /// capacity below tested up to the default 4096 crosses a shard
    /// boundary.
    fn corpora() -> Vec<(Fvl<'static>, Vec<DataLabel>)> {
        let ex = paper_example();
        let fig3 = Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap();
        let fig3_labels = fig3.labeler(&figure3_run(&ex).0).labels().to_vec();
        let w = wf_workloads::bioaid(1);
        let bio = Fvl::from_arc(Arc::new(w.spec.clone())).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let (_, run) = wf_workloads::sample::sample_run(&w, bio.prod_graph(), &mut rng, 5000);
        let bio_labels = bio.labeler(&run).labels().to_vec();
        assert!(bio_labels.len() > 4096, "{} BioAID labels", bio_labels.len());
        vec![(fig3, fig3_labels), (bio, bio_labels)]
    }

    /// Asserts only an open (not yet full) tail shard holds an interner.
    fn assert_only_the_tail_interns(store: &LabelStore, what: &str) {
        let last = store.shards.len().saturating_sub(1);
        for (i, s) in store.shards.iter().enumerate() {
            let open = i == last && (s.labels.len() as u64) < store.shard_capacity as u64;
            assert_eq!(s.interner.is_some(), open, "{what}: shard {i} of {}", store.shards.len());
        }
    }

    /// A loaded store is laid out exactly like the cold-built one — the
    /// same nodes in the same order and the same label table in every
    /// shard — so queries see an identical memory layout after a warm
    /// start, and re-saving it writes the same bytes.
    #[test]
    fn a_loaded_store_has_the_cold_built_layout() {
        for (fvl, labels) in corpora() {
            for cap in [1u32, 3, 8, 4096, u32::MAX] {
                let what = format!("{} labels at capacity {cap}", labels.len());
                let mut cold = LabelStore::with_shard_capacity(cap);
                cold.try_insert_all(&labels).unwrap();
                let mut w = BitWriter::new();
                cold.write_snapshot(fvl.codec(), &mut w);
                let bits = w.finish();
                let loaded = LabelStore::read_snapshot_with_capacity(
                    &mut BitReader::new(&bits),
                    fvl.codec(),
                    &fvl.spec().grammar,
                    fvl.prod_graph(),
                    cap,
                )
                .unwrap();
                assert_eq!(loaded.len(), cold.len(), "{what}");
                assert_eq!(loaded.shard_count(), cold.shard_count(), "{what}");
                for (i, (a, b)) in loaded.shards.iter().zip(&cold.shards).enumerate() {
                    assert_eq!(a.nodes, b.nodes, "{what}: shard {i} nodes");
                    assert_eq!(a.labels, b.labels, "{what}: shard {i} labels");
                    assert_eq!(a.raw_edges, b.raw_edges, "{what}: shard {i} raw edges");
                }
                let mut again = BitWriter::new();
                loaded.write_snapshot(fvl.codec(), &mut again);
                assert_eq!(again.finish(), bits, "{what}: re-saved bytes");
            }
        }
    }

    /// Filling a shard seals it: its interning map and cursors go, on
    /// every path that builds a store — batched and single inserts, a
    /// snapshot load and a durable open's op-log replay.
    #[test]
    fn only_the_tail_shard_keeps_an_interner() {
        let ex = paper_example();
        let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
        let labels = fvl.labeler(&figure3_run(&ex).0).labels().to_vec();
        for cap in [1u32, 3, 8] {
            let mut batched = LabelStore::with_shard_capacity(cap);
            batched.try_insert_all(&labels).unwrap();
            assert_only_the_tail_interns(&batched, "after try_insert_all");
            let mut single = LabelStore::with_shard_capacity(cap);
            for d in &labels {
                single.try_insert(d).unwrap();
                assert_only_the_tail_interns(&single, "after try_insert");
            }
            for n in [labels.len(), labels.len() - 1] {
                let mut w = BitWriter::new();
                let mut store = LabelStore::with_shard_capacity(cap);
                store.try_insert_all(&labels[..n]).unwrap();
                store.write_snapshot(fvl.codec(), &mut w);
                let loaded = LabelStore::read_snapshot_with_capacity(
                    &mut BitReader::new(&w.finish()),
                    fvl.codec(),
                    &fvl.spec().grammar,
                    fvl.prod_graph(),
                    cap,
                )
                .unwrap();
                assert_only_the_tail_interns(&loaded, "after read_snapshot");
            }
        }

        let storage = MemStorage::new();
        let (mut durable, gen0, _) =
            DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 3).unwrap();
        let live = LiveEngine::new(gen0.clone());
        let mut writer = EngineWriter::new(gen0);
        for chunk in labels.chunks(4) {
            writer.try_insert_labels(chunk).unwrap();
            writer.publish_durable(&live, &mut durable).unwrap();
        }
        drop(durable);
        let (_, recovered, report) = DurableEngine::open(fvl, Box::new(storage), 3).unwrap();
        assert_eq!(report.replayed_frames, labels.len().div_ceil(4) as u64);
        assert_eq!(recovered.store().len(), labels.len());
        assert_only_the_tail_interns(recovered.store(), "after DurableEngine::open replay");
    }

    /// The hash-every-edge interner the prefix cursor must agree with: a
    /// plain `(parent, edge) → node` map per shard, under the store's
    /// capacity rules.
    struct Reference {
        shard_capacity: usize,
        shards: Vec<RefShard>,
        stored: Vec<DataLabel>,
    }

    #[derive(Default)]
    struct RefShard {
        nodes: Vec<(u32, EdgeLabel)>,
        map: HashMap<(u32, EdgeLabel), u32>,
        labels: usize,
    }

    impl Reference {
        /// Whether `d` was stored under the id and node budget `cap`.
        fn insert(&mut self, d: &DataLabel, cap: u32) -> bool {
            if self.stored.len() as u64 >= cap as u64 {
                return false;
            }
            if self.shards.last().is_none_or(|s| s.labels >= self.shard_capacity) {
                self.shards.push(RefShard::default());
            }
            let RefShard { nodes, map, labels } = self.shards.last_mut().unwrap();
            for p in [&d.out, &d.inp].into_iter().flatten() {
                let mut cur = ROOT;
                for &e in p.path.iter() {
                    cur = match map.get(&(cur, e)) {
                        Some(&n) => n,
                        None if nodes.len() as u64 >= cap as u64 => return false,
                        None => {
                            nodes.push((cur, e));
                            map.insert((cur, e), nodes.len() as u32 - 1);
                            nodes.len() as u32 - 1
                        }
                    };
                }
            }
            *labels += 1;
            self.stored.push(d.clone());
            true
        }
    }

    /// Singles and batches of forward, reversed and repeated labels, a
    /// bounded insert that fails mid-path and unbounded inserts after it:
    /// the cursor-interned store builds exactly the reference's tries.
    #[test]
    fn the_prefix_cursor_matches_a_reference_interner() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let labels = fvl.labeler(&figure3_run(&ex).0).labels().to_vec();
        let reversed: Vec<DataLabel> = labels.iter().rev().cloned().collect();
        let repeated: Vec<DataLabel> =
            labels[..3].iter().flat_map(|d| [d.clone(), d.clone()]).collect();
        /// Inserts `batch` into both, one label at a time or as one batch.
        fn insert(
            store: &mut LabelStore,
            reference: &mut Reference,
            batch: &[DataLabel],
            batched: bool,
        ) {
            if batched {
                store.try_insert_all(batch).unwrap();
            } else {
                for d in batch {
                    store.try_insert(d).unwrap();
                }
            }
            for d in batch {
                assert!(reference.insert(d, ROOT));
            }
        }
        // A path that shares nothing with any run label: every edge is new.
        let novel = |len: usize| {
            let path: Vec<_> = (0..len as u64).map(|i| EdgeLabel::Rec { s: 9, t: 9, i }).collect();
            Some(PortLabel::new(path, 0))
        };
        for shard_capacity in [3u32, 8, u32::MAX] {
            let mut store = LabelStore::with_shard_capacity(shard_capacity);
            let mut reference = Reference {
                shard_capacity: shard_capacity as usize,
                shards: vec![],
                stored: vec![],
            };
            let half = &labels[..labels.len() / 2];
            let steps: [(&[DataLabel], bool); 6] = [
                (half, false),
                (&labels, true),
                (&reversed, true),
                (&labels[..3], true),
                (&repeated, false),
                (&reversed, false),
            ];
            for (batch, batched) in steps {
                insert(&mut store, &mut reference, batch, batched);
            }

            // Both sides of this label are novel and the inputs side
            // extends the outputs side, so whichever side exhausts the node
            // budget, the nodes interned before it stay behind.
            let tail = store.shards.last().unwrap();
            let before = if tail.interner.is_some() { tail.nodes.len() } else { 0 };
            let cap = (store.len().max(before) + 1) as u32;
            let failing = DataLabel { out: novel(2), inp: novel(cap as usize + 2) };
            let err = store.try_insert_bounded(&failing, cap).unwrap_err();
            assert!(matches!(err, EngineError::StoreFull { what: "trie node", .. }), "{err:?}");
            assert!(!reference.insert(&failing, cap));
            assert!(store.shards.last().unwrap().nodes.len() > before, "no node left behind");

            insert(&mut store, &mut reference, std::slice::from_ref(&failing), false);
            insert(&mut store, &mut reference, &labels, true);

            assert_eq!(store.shard_count(), reference.shards.len(), "cap {shard_capacity}");
            for (i, (s, r)) in store.shards.iter().zip(&reference.shards).enumerate() {
                assert_eq!(s.nodes, r.nodes, "cap {shard_capacity}: shard {i} nodes");
                assert_eq!(s.labels.len(), r.labels, "cap {shard_capacity}: shard {i} labels");
            }
            assert_eq!(store.len(), reference.stored.len());
            for (i, d) in reference.stored.iter().enumerate() {
                assert_eq!(&store.materialize(ItemId(i as u32)), d, "cap {shard_capacity}: {i}");
            }
        }
    }
}
