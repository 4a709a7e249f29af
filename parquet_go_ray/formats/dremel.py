"""True Dremel repetition/definition-level shredding and assembly for the
PAR1 interop layer.

The reference marshals nested Go values into rep/def level streams
(marshal/marshal.go:227-343) against the 3-level LIST / MAP schema expansion
(schema/schemahandler.go:297-386) and reassembles them on read
(marshal/unmarshal.go:31-264) — one record at a time.  Here the same level
semantics are computed COLUMN-AT-A-TIME with vectorized numpy over Arrow
buffers: a node's whole slot vector expands in one np.repeat, list element
counts come from the Arrow offsets buffer, and assembly rebuilds arrays from
(rep, def) masks with cumsum/searchsorted — no per-record recursion.

Level conventions (parquet-format LogicalTypes.md):
  * every OPTIONAL node adds +1 definition level when present;
  * every repeated node (the LIST "list" / MAP "key_value" group) adds +1
    definition level AND +1 repetition level when entered;
  * a null list slot terminates at the def level BELOW the optional group,
    an empty list at the group's level, an element at the repeated level
    (plus whatever the element subtree adds);
  * the first element of a row keeps the slot's inherited repetition level,
    subsequent elements repeat at the deepest repeated ancestor's level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa


@dataclass
class Node:
    """Schema-tree node: 'leaf' | 'struct' | 'list' | 'map'.

    `type` is the Arrow type AT this node; `opt` is parquet OPTIONAL vs
    REQUIRED.  For 'list', children = [element]; for 'map',
    children = [key_leaf, value_node]; `mid_name` is the repeated group's
    name in the file ("list" / "key_value" on write, whatever the foreign
    writer used on read)."""

    kind: str
    name: str
    type: pa.DataType
    opt: bool = True
    children: list["Node"] = field(default_factory=list)
    mid_name: str = ""
    # physical-type override for leaves whose storage differs from the
    # arrow-type default (reader side: INT96 decodes as binary(12) then
    # converts to timestamp[ns]); None = derive from `type`
    phys: int | None = None


@dataclass
class LeafStream:
    """One leaf column's Dremel streams.

    rep/defs are int32 slot vectors (len = slot count, >= row count);
    values is the null-free dense leaf array (len = count(defs == max_def))."""

    path: list[str]
    node: Node
    max_rep: int
    max_def: int
    rep: np.ndarray
    defs: np.ndarray
    values: pa.Array


def node_from_arrow(name: str, t: pa.DataType, opt: bool = True) -> Node:
    """Build the schema tree for an Arrow type (writer side).  Everything is
    declared OPTIONAL except map keys (parquet requires required keys)."""
    if pa.types.is_list(t) or pa.types.is_large_list(t):
        elem = node_from_arrow("element", t.value_type, opt=True)
        return Node("list", name, t, opt, [elem], mid_name="list")
    if pa.types.is_map(t):
        key = node_from_arrow("key", t.key_type, opt=False)
        val = node_from_arrow("value", t.item_type, opt=True)
        return Node("map", name, t, opt, [key, val], mid_name="key_value")
    if pa.types.is_struct(t):
        kids = [node_from_arrow(t.field(i).name, t.field(i).type, opt=True) for i in range(t.num_fields)]
        return Node("struct", name, t, opt, kids)
    return Node("leaf", name, t, opt)


def leaf_specs(node: Node, prefix: list[str] | None = None, cur_rep: int = 0, cur_def: int = 0):
    """DFS list of (path, leaf_node, max_rep, max_def) under `node`.

    Empty names contribute NO path segment: legacy 2-level lists (parquet
    LogicalTypes.md backward-compat rules) model the repeated field as a
    list node with mid_name="" whose element node is unnamed (unannotated
    `repeated T f` -> path [f]) or carries the repeated field's own name
    (`group (LIST) { repeated T array }` -> path [.., array])."""
    prefix = (prefix or []) + ([node.name] if node.name else [])
    d = cur_def + (1 if node.opt else 0)
    if node.kind == "leaf":
        return [(prefix, node, cur_rep, d)]
    if node.kind == "struct":
        out = []
        for c in node.children:
            out += leaf_specs(c, prefix, cur_rep, d)
        return out
    # list / map: the repeated group adds +1 rep and +1 def
    out = []
    mid = [node.mid_name] if node.mid_name else []
    for c in node.children:
        out += leaf_specs(c, prefix + mid, cur_rep + 1, d + 1)
    return out


def _valid_np(arr: pa.Array) -> np.ndarray:
    if arr.null_count == 0:
        return np.ones(len(arr), dtype=bool)
    return arr.is_valid().to_numpy(zero_copy_only=False)


def _list_lengths(arr: pa.Array) -> np.ndarray:
    """Per-slot element counts of a null-FREE list/large_list array."""
    import pyarrow.compute as pc

    return pc.list_value_length(arr).to_numpy(zero_copy_only=False).astype(np.int64)


def _map_as_list(node: Node, arr: pa.Array) -> tuple[Node, pa.Array]:
    """View a map column as list<struct<key required, value optional>> so the
    list shred/assemble code handles both."""
    from dataclasses import replace

    kt, vt = node.type.key_type, node.type.item_type
    st = pa.struct([pa.field("key", kt, nullable=False), pa.field("value", vt)])
    lt = pa.list_(pa.field(node.mid_name or "key_value", st, nullable=False))
    # force arrow's fixed key/value field names so struct construction and
    # the final map cast agree regardless of the file's leaf names
    kids = [replace(node.children[0], name="key"), replace(node.children[1], name="value")]
    kv = Node("struct", node.mid_name or "key_value", st, opt=False, children=kids)
    # the kv struct IS the repeated group — its own name supplies the path
    # segment, so the list view carries no extra mid segment
    as_list = Node("list", node.name, lt, node.opt, [kv], mid_name="")
    if arr is not None:
        arr = arr.cast(lt)
    return as_list, arr


# ---------------------------------------------------------------------------
# shred
# ---------------------------------------------------------------------------


def shred(node: Node, arr: pa.Array) -> list[LeafStream]:
    """Shred one top-level column into its leaf streams (DFS order)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    out: list[LeafStream] = []
    _shred(
        node,
        np.zeros(n, np.int32),
        np.zeros(n, np.int32),
        np.ones(n, bool),
        arr,
        0,
        0,
        [],
        out,
    )
    return out


def _shred(node, rep, defs, alive, dense, cur_rep, cur_def, path, out):
    """rep/defs/alive are per-SLOT; dense holds the alive slots' values (in
    slot order).  Dead slots (null/empty ancestors) ride along so every leaf
    stream has one entry per slot path, as Dremel requires."""
    path = path + ([node.name] if node.name else [])
    if node.kind == "map":
        node, dense = _map_as_list(node, dense)
    if node.kind == "leaf":
        d = defs.copy()
        if node.opt:
            v = _valid_np(dense)
            idx = np.flatnonzero(alive)
            d[idx[v]] = cur_def + 1
            vals = dense.drop_null()
        else:
            vals = dense
        out.append(
            LeafStream(path, node, cur_rep, cur_def + (1 if node.opt else 0), rep, d, vals)
        )
        return
    if node.kind == "struct":
        if node.opt:
            v = _valid_np(dense)
            idx = np.flatnonzero(alive)
            d = defs.copy()
            d[idx[v]] = cur_def + 1
            a = alive.copy()
            a[idx[~v]] = False
            sub = dense.filter(pa.array(v)) if not v.all() else dense
            for i, c in enumerate(node.children):
                _shred(c, rep, d, a, sub.field(i), cur_rep, cur_def + 1, path, out)
        else:
            for i, c in enumerate(node.children):
                _shred(c, rep, defs, alive, dense.field(i), cur_rep, cur_def, path, out)
        return
    assert node.kind == "list", node.kind
    v = _valid_np(dense)
    valid_dense = dense.drop_null() if not v.all() else dense
    lens = _list_lengths(valid_dense)  # per alive&valid slot
    n_slots = len(rep)
    d_group = cur_def + (1 if node.opt else 0)
    d_elem = d_group + 1
    # per-slot expansion counts (dead -> 1, null -> 1, empty -> 1, else len)
    counts = np.ones(n_slots, np.int64)
    alive_idx = np.flatnonzero(alive)
    av_idx = alive_idx[v]  # alive & list non-null
    counts[av_idx] = np.maximum(lens, 1)
    # per-slot terminal def (for expansion); element slots get d_elem
    slot_def = defs.copy()
    slot_def[av_idx[lens == 0]] = d_group
    slot_def[av_idx[lens > 0]] = d_elem
    total = int(counts.sum())
    new_defs = np.repeat(slot_def, counts).astype(np.int32)
    new_rep = np.full(total, cur_rep + 1, np.int32)
    starts = np.zeros(n_slots, np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    new_rep[starts] = rep
    new_alive = np.zeros(total, bool)
    elem_slot = np.zeros(n_slots, bool)
    elem_slot[av_idx[lens > 0]] = True
    new_alive[np.repeat(elem_slot, counts)] = True
    new_dense = valid_dense.flatten()
    child = node.children[0]
    mid_path = path + ([node.mid_name] if node.mid_name else [])
    _shred(child, new_rep, new_defs, new_alive, new_dense, cur_rep + 1, d_elem, mid_path, out)


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------


def assemble(node: Node, streams: list[LeafStream]) -> pa.Array:
    """Inverse of shred: rebuild the Arrow column from its leaf streams."""
    arr = _assemble(node, streams, 0, 0)
    return arr


def _expand_valid(vals: pa.Array, valid: np.ndarray) -> pa.Array:
    """Stretch dense values to slot length, null where ~valid (take with a
    null index yields null for every Arrow type)."""
    if valid.all():
        return vals
    idx = np.maximum(np.cumsum(valid) - 1, 0)
    return vals.take(pa.array(idx.astype(np.int64), mask=~valid))


def _assemble(node, streams, cur_rep, cur_def):
    if node.kind == "map":
        lnode, _ = _map_as_list(node, None)
        as_list = _assemble(lnode, streams, cur_rep, cur_def)
        # list<struct<key,value>> -> map, preserving validity
        n = len(as_list)
        bufs = as_list.buffers()
        kv = as_list.values if hasattr(as_list, "values") else as_list.flatten()
        return pa.Array.from_buffers(
            node.type, n, [bufs[0], bufs[1]], null_count=as_list.null_count, children=[kv]
        )
    if node.kind == "leaf":
        s = streams[0]
        vdef = cur_def + (1 if node.opt else 0)
        valid = s.defs >= vdef
        vals = s.values
        if vals.type != node.type:
            # unsigned 32/64-bit leaves arrive as their signed storage
            vals = vals.cast(node.type, safe=not pa.types.is_unsigned_integer(node.type))
        out = _expand_valid(vals, valid)
        if len(out) != len(s.defs):
            raise ValueError("leaf stream misaligned")
        return out
    if node.kind == "struct":
        vdef = cur_def + (1 if node.opt else 0)
        kids = []
        i = 0
        for c in node.children:
            k = _leaf_count(c)
            kids.append(_assemble(c, streams[i : i + k], cur_rep, vdef))
            i += k
        s0 = streams[0]
        # struct validity judged at THIS level: any leaf's def stream agrees
        # above the element level, but only positions that are slots here
        slot_mask = s0.rep <= cur_rep
        n = int(slot_mask.sum())
        valid = s0.defs[slot_mask] >= vdef if node.opt else np.ones(n, bool)
        # from_buffers (not StructArray.from_arrays + cast): the target type
        # may carry non-nullable fields (map keys), which cast rejects
        if valid.all():
            vbuf, nc = None, 0
        else:
            vbuf, nc = pa.array(valid).buffers()[1], int((~valid).sum())
        kids = [k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k for k in kids]
        return pa.Array.from_buffers(node.type, n, [vbuf], null_count=nc, children=kids)
    assert node.kind == "list", node.kind
    s0 = streams[0]
    d_group = cur_def + (1 if node.opt else 0)
    d_elem = d_group + 1
    slot_mask = s0.rep <= cur_rep  # slot starts at this level
    elem_mask_pos = (s0.rep <= cur_rep + 1) & (s0.defs >= d_elem)
    # elements per slot: count elem positions between consecutive slot starts
    slot_pos = np.flatnonzero(slot_mask)
    n = len(slot_pos)
    cum_elem = np.zeros(len(s0.rep) + 1, np.int64)
    np.cumsum(elem_mask_pos, out=cum_elem[1:])
    bounds = np.append(slot_pos, len(s0.rep))
    counts = cum_elem[bounds[1:]] - cum_elem[bounds[:-1]]
    start_defs = s0.defs[slot_pos]
    valid = start_defs >= d_group if node.opt else np.ones(n, bool)
    # recurse with streams filtered to element positions (+ deeper repeats,
    # which always carry def >= d_elem)
    sub = []
    for s in streams:
        keep = s.defs >= d_elem
        sub.append(
            LeafStream(s.path, s.node, s.max_rep, s.max_def, s.rep[keep], s.defs[keep], s.values)
        )
    child = _assemble(node.children[0], sub, cur_rep + 1, d_elem)
    large = pa.types.is_large_list(node.type)
    off_t = np.int64 if large else np.int32
    offsets = np.zeros(n + 1, off_t)
    np.cumsum(counts.astype(off_t), out=offsets[1:])
    if node.opt and not valid.all():
        vbuf = pa.array(valid).buffers()[1]
        return pa.Array.from_buffers(
            node.type, n, [vbuf, pa.py_buffer(offsets.tobytes())],
            null_count=int((~valid).sum()), children=[child],
        )
    return pa.Array.from_buffers(
        node.type, n, [None, pa.py_buffer(offsets.tobytes())], null_count=0, children=[child]
    )


def _leaf_count(node: Node) -> int:
    if node.kind == "leaf":
        return 1
    return sum(_leaf_count(c) for c in node.children)
