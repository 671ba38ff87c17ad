//! The on-disk snapshot format.
//!
//! ```text
//! superblock:
//!   magic      "RQSNAP01"                      8 bytes
//!   version    u32 LE (= 1)
//!   num_nodes  u32 LE
//!   num_labels u32 LE
//!   num_shards u32 LE
//!   epoch      u64 LE   (graph epoch at snapshot time)
//!   sections   u32 LE   (section count)
//!   table      sections × { kind u8, shard u32, offset u64, len u64, crc u32 }
//!   crc        u32 LE   (CRC-32 of every superblock byte above)
//! payload: the sections, at the table's absolute offsets
//! ```
//!
//! Section kinds:
//!
//! * `0` **labels** (one, shard = 0): `count u32`, then `len u32 + utf8`
//!   per label name, in `LabelId` order.
//! * `1` **nodes** (one per shard): `lo u32, hi u32`, then per node in
//!   `[lo, hi)` a presence byte (`1` named, `0` anonymous) followed, if
//!   named, by `len u32 + utf8`.
//! * `2` **edges** (one per shard): `lo u32, hi u32, labels u32`, then per
//!   label a CSR over sources in `[lo, hi)`: `hi−lo+1` row offsets
//!   (`u32`), then `offsets[hi−lo]` destination node ids (`u32`).
//!
//! Shards partition the node-id space into contiguous ranges, and each
//! label's CSR rows are the database's forward rows verbatim, so the
//! encoder writes rows as they are and the loader appends them shard by
//! shard without reshuffling. Every section is independently
//! checksummed; the loader verifies the superblock CRC before trusting
//! the table and each section CRC before decoding it, so a truncated file
//! or a flipped bit fails closed as [`StorageError::Corrupt`].

use crate::{crc32, StorageConfig, StorageError};
use rq_automata::{Alphabet, Letter};
use rq_graph::{GraphDb, NodeId};
use std::path::Path;

pub(crate) const MAGIC: &[u8; 8] = b"RQSNAP01";
pub(crate) const VERSION: u32 = 1;

const KIND_LABELS: u8 = 0;
const KIND_NODES: u8 = 1;
const KIND_EDGES: u8 = 2;

/// What the superblock declared, returned alongside the decoded database.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotInfo {
    pub nodes: usize,
    pub labels: usize,
    pub shards: u32,
    pub epoch: u64,
    pub bytes: u64,
}

/// The contiguous node range `[lo, hi)` owned by shard `i` of `shards`
/// over `n` nodes.
pub fn shard_range(i: u32, shards: u32, n: u32) -> (u32, u32) {
    let shards = shards.max(1);
    let chunk = n.div_ceil(shards).max(1);
    let lo = (i * chunk).min(n);
    let hi = ((i + 1) * chunk).min(n);
    (lo, hi)
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a section payload. Every
/// decode error is reported as corruption — never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("unexpected end of section at byte {}", self.pos))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-utf8 string".to_owned())
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

struct Section {
    kind: u8,
    shard: u32,
    payload: Vec<u8>,
}

fn encode_labels(db: &GraphDb) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, db.alphabet().len() as u32);
    for l in db.alphabet().labels() {
        put_str(&mut buf, db.alphabet().name(l));
    }
    buf
}

fn encode_nodes(db: &GraphDb, lo: u32, hi: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, lo);
    put_u32(&mut buf, hi);
    for n in lo..hi {
        match db.node_name(NodeId(n)) {
            Some(name) => {
                buf.push(1);
                put_str(&mut buf, name);
            }
            None => buf.push(0),
        }
    }
    buf
}

fn encode_edges(db: &GraphDb, lo: u32, hi: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, lo);
    put_u32(&mut buf, hi);
    put_u32(&mut buf, db.alphabet().len() as u32);
    for label in db.alphabet().labels() {
        // The CSR over sources in [lo, hi) is the forward rows, verbatim.
        let rows = (lo..hi).map(|s| db.step(NodeId(s), Letter::forward(label)));
        let mut offset = 0u32;
        put_u32(&mut buf, offset);
        for row in rows.clone() {
            offset += row.len() as u32;
            put_u32(&mut buf, offset);
        }
        for d in rows.flatten() {
            put_u32(&mut buf, d.0);
        }
    }
    buf
}

/// Serialize `db` into a complete snapshot image (superblock + sections).
pub(crate) fn encode(db: &GraphDb, config: &StorageConfig, epoch: u64) -> Vec<u8> {
    let n = db.num_nodes() as u32;
    let shards = config.shards.max(1);
    let mut sections = vec![Section {
        kind: KIND_LABELS,
        shard: 0,
        payload: encode_labels(db),
    }];
    for i in 0..shards {
        let (lo, hi) = shard_range(i, shards, n);
        sections.push(Section {
            kind: KIND_NODES,
            shard: i,
            payload: encode_nodes(db, lo, hi),
        });
        sections.push(Section {
            kind: KIND_EDGES,
            shard: i,
            payload: encode_edges(db, lo, hi),
        });
    }
    image(n, db.alphabet().len() as u32, shards, epoch, &sections)
}

/// Frame `sections` behind a superblock declaring the given counts.
fn image(n: u32, labels: u32, shards: u32, epoch: u64, sections: &[Section]) -> Vec<u8> {
    // Superblock size: fixed head + table + trailing crc.
    let head = 8 + 4 + 4 + 4 + 4 + 8 + 4;
    let entry = 1 + 4 + 8 + 8 + 4;
    let sb_len = head + sections.len() * entry + 4;

    let mut sb = Vec::with_capacity(sb_len);
    sb.extend_from_slice(MAGIC);
    put_u32(&mut sb, VERSION);
    put_u32(&mut sb, n);
    put_u32(&mut sb, labels);
    put_u32(&mut sb, shards);
    put_u64(&mut sb, epoch);
    put_u32(&mut sb, sections.len() as u32);
    let mut offset = sb_len as u64;
    for s in sections {
        sb.push(s.kind);
        put_u32(&mut sb, s.shard);
        put_u64(&mut sb, offset);
        put_u64(&mut sb, s.payload.len() as u64);
        put_u32(&mut sb, crc32::of(&s.payload));
        offset += s.payload.len() as u64;
    }
    let crc = crc32::of(&sb);
    put_u32(&mut sb, crc);
    debug_assert_eq!(sb.len(), sb_len);

    let mut out = sb;
    for s in sections {
        out.extend_from_slice(&s.payload);
    }
    out
}

struct TableEntry {
    kind: u8,
    shard: u32,
    offset: u64,
    len: u64,
    crc: u32,
}

fn decode_nodes(payload: &[u8], shard: u32) -> Result<(u32, u32, Vec<Option<String>>), String> {
    let mut c = Cursor::new(payload);
    let lo = c.u32()?;
    let hi = c.u32()?;
    if hi < lo {
        return Err(format!("nodes shard {shard}: inverted range {lo}..{hi}"));
    }
    let mut names = Vec::with_capacity((hi - lo) as usize);
    for _ in lo..hi {
        names.push(match c.u8()? {
            0 => None,
            1 => Some(c.str()?),
            b => return Err(format!("nodes shard {shard}: bad presence byte {b}")),
        });
    }
    if !c.done() {
        return Err(format!("nodes shard {shard}: trailing bytes"));
    }
    Ok((lo, hi, names))
}

/// Decode one shard's edge section, appending its rows to `forward`
/// (`forward[label]` must already hold exactly the rows below `lo`).
fn decode_edges(
    payload: &[u8],
    shard: u32,
    (lo, hi): (u32, u32),
    num_nodes: u32,
    forward: &mut [Vec<Vec<NodeId>>],
) -> Result<(), String> {
    let mut c = Cursor::new(payload);
    let (elo, ehi) = (c.u32()?, c.u32()?);
    if (elo, ehi) != (lo, hi) {
        return Err(format!(
            "shard {shard}: node range {lo}..{hi} disagrees with edge range {elo}..{ehi}"
        ));
    }
    let labels = c.u32()?;
    if labels as usize != forward.len() {
        return Err(format!(
            "edges shard {shard}: {labels} labels, superblock says {}",
            forward.len()
        ));
    }
    let rows = (hi - lo) as usize;
    for (l, per_node) in forward.iter_mut().enumerate() {
        let mut offsets = Vec::with_capacity(rows + 1);
        for _ in 0..=rows {
            offsets.push(c.u32()?);
        }
        let mut prev = 0u32;
        for w in offsets.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a != prev || b < a {
                return Err(format!(
                    "edges shard {shard} label {l}: non-monotone CSR offsets"
                ));
            }
            prev = b;
            let row = c.take(4 * (b - a) as usize)?;
            let dsts = row
                .chunks_exact(4)
                .map(|w| match u32::from_le_bytes(w.try_into().unwrap()) {
                    d if d < num_nodes => Ok(NodeId(d)),
                    d => Err(format!(
                        "edges shard {shard} label {l}: destination {d} out of range"
                    )),
                })
                .collect::<Result<Vec<_>, _>>()?;
            per_node.push(dsts);
        }
    }
    if !c.done() {
        return Err(format!("edges shard {shard}: trailing bytes"));
    }
    Ok(())
}

/// Decode a snapshot image into a [`GraphDb`], verifying every checksum.
pub(crate) fn decode(bytes: &[u8], path: &Path) -> Result<(GraphDb, SnapshotInfo), StorageError> {
    let corrupt = |detail: String| StorageError::corrupt(path, detail);

    // Superblock head.
    let mut c = Cursor::new(bytes);
    let magic = c.take(8).map_err(&corrupt)?;
    if magic != MAGIC {
        return Err(corrupt(format!("bad magic {magic:02x?}")));
    }
    let version = c.u32().map_err(&corrupt)?;
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let num_nodes = c.u32().map_err(&corrupt)?;
    let num_labels = c.u32().map_err(&corrupt)?;
    let num_shards = c.u32().map_err(&corrupt)?;
    let epoch = c.u64().map_err(&corrupt)?;
    let num_sections = c.u32().map_err(&corrupt)?;
    // Guard the multiplication below against a corrupted count.
    if num_sections as u64 > 2 * num_shards as u64 + 1 {
        return Err(corrupt(format!(
            "section count {num_sections} inconsistent with {num_shards} shards"
        )));
    }
    let mut table = Vec::with_capacity(num_sections as usize);
    for _ in 0..num_sections {
        table.push(TableEntry {
            kind: c.u8().map_err(&corrupt)?,
            shard: c.u32().map_err(&corrupt)?,
            offset: c.u64().map_err(&corrupt)?,
            len: c.u64().map_err(&corrupt)?,
            crc: c.u32().map_err(&corrupt)?,
        });
    }
    let sb_end = c.pos;
    let declared = c.u32().map_err(&corrupt)?;
    let actual = crc32::of(&bytes[..sb_end]);
    if declared != actual {
        return Err(corrupt(format!(
            "superblock crc mismatch (declared {declared:08x}, computed {actual:08x})"
        )));
    }

    // Slice out and checksum every section before decoding any.
    let mut labels_payload: Option<&[u8]> = None;
    let mut node_sections: Vec<(u32, &[u8])> = Vec::new();
    let mut edge_sections: Vec<(u32, &[u8])> = Vec::new();
    for e in &table {
        let start =
            usize::try_from(e.offset).map_err(|_| corrupt("section offset overflow".into()))?;
        let len = usize::try_from(e.len).map_err(|_| corrupt("section length overflow".into()))?;
        let end = start
            .checked_add(len)
            .filter(|&end| end <= bytes.len())
            .ok_or_else(|| {
                corrupt(format!(
                    "section (kind {}, shard {}) extends past end of file",
                    e.kind, e.shard
                ))
            })?;
        let payload = &bytes[start..end];
        let actual = crc32::of(payload);
        if actual != e.crc {
            return Err(corrupt(format!(
                "section (kind {}, shard {}) crc mismatch (declared {:08x}, computed {actual:08x})",
                e.kind, e.shard, e.crc
            )));
        }
        match e.kind {
            KIND_LABELS => labels_payload = Some(payload),
            KIND_NODES => node_sections.push((e.shard, payload)),
            KIND_EDGES => edge_sections.push((e.shard, payload)),
            k => return Err(corrupt(format!("unknown section kind {k}"))),
        }
    }
    let labels_payload = labels_payload.ok_or_else(|| corrupt("missing labels section".into()))?;
    node_sections.sort_by_key(|&(shard, _)| shard);
    edge_sections.sort_by_key(|&(shard, _)| shard);
    if node_sections.len() != num_shards as usize || edge_sections.len() != num_shards as usize {
        return Err(corrupt(format!(
            "expected {num_shards} node + {num_shards} edge sections, found {} + {}",
            node_sections.len(),
            edge_sections.len()
        )));
    }

    // Labels.
    let mut lc = Cursor::new(labels_payload);
    let count = lc.u32().map_err(&corrupt)?;
    if count != num_labels {
        return Err(corrupt(format!(
            "labels section has {count} labels, superblock says {num_labels}"
        )));
    }
    let mut alphabet = Alphabet::new();
    for _ in 0..count {
        alphabet.intern(&lc.str().map_err(&corrupt)?);
    }
    if alphabet.len() != num_labels as usize {
        return Err(corrupt("duplicate label names in labels section".into()));
    }

    // Shards, in order: each appends its names and its forward rows.
    let mut node_names: Vec<Option<String>> = Vec::with_capacity(num_nodes as usize);
    let mut forward = vec![Vec::new(); num_labels as usize];
    for (&(nshard, npay), &(eshard, epay)) in node_sections.iter().zip(&edge_sections) {
        let (lo, hi, names) = decode_nodes(npay, nshard).map_err(&corrupt)?;
        if nshard != eshard {
            return Err(corrupt(format!(
                "node shard {nshard} paired with edge shard {eshard}"
            )));
        }
        let (want_lo, want_hi) = shard_range(nshard, num_shards, num_nodes);
        if (lo, hi) != (want_lo, want_hi) {
            return Err(corrupt(format!(
                "shard {nshard}: declared range {lo}..{hi}, expected {want_lo}..{want_hi}"
            )));
        }
        if lo as usize != node_names.len() {
            return Err(corrupt(format!(
                "shard ranges are not contiguous at node {}",
                node_names.len()
            )));
        }
        node_names.extend(names);
        decode_edges(epay, eshard, (lo, hi), num_nodes, &mut forward).map_err(&corrupt)?;
    }
    if node_names.len() != num_nodes as usize {
        return Err(corrupt(format!(
            "shards cover {} nodes, superblock says {num_nodes}",
            node_names.len()
        )));
    }

    let db = GraphDb::from_columns(alphabet, node_names, forward);
    let info = SnapshotInfo {
        nodes: num_nodes as usize,
        labels: num_labels as usize,
        shards: num_shards,
        epoch,
        bytes: bytes.len() as u64,
    };
    Ok((db, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rq_automata::LabelId;
    use rq_graph::generate;
    use std::path::PathBuf;

    fn roundtrip(db: &GraphDb, shards: u32) -> GraphDb {
        let config = StorageConfig {
            shards,
            ..StorageConfig::default()
        };
        let bytes = encode(db, &config, 7);
        let (back, info) = decode(&bytes, &PathBuf::from("mem")).unwrap();
        assert_eq!(info.nodes, db.num_nodes());
        assert_eq!(info.labels, db.alphabet().len());
        assert_eq!(info.epoch, 7);
        back
    }

    /// Equal down to forward-row order (every label's edges, source-major)
    /// and backward-row contents. Loading rebuilds backward rows in source
    /// order, not in the order their edges were added.
    fn assert_same(a: &GraphDb, b: &GraphDb) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.alphabet(), b.alphabet());
        for l in a.alphabet().labels() {
            assert!(a.edges(l).eq(b.edges(l)));
            for n in a.nodes() {
                let back = |db: &GraphDb| {
                    let mut row: Vec<_> = db.step(n, Letter::backward(l)).collect();
                    row.sort();
                    row
                };
                assert_eq!(back(a), back(b));
            }
        }
        for n in a.nodes() {
            assert_eq!(a.node_name(n), b.node_name(n));
        }
    }

    #[test]
    fn roundtrips_generated_graphs_across_shard_counts() {
        let dbs = [
            generate::chain(10, "r"),
            generate::random_gnm(64, 200, &["a", "b", "c"], 42),
            GraphDb::new(),
        ];
        for db in &dbs {
            for shards in [1, 3, 4, 16] {
                assert_same(db, &roundtrip(db, shards));
            }
        }
    }

    #[test]
    fn roundtrips_anonymous_and_isolated_nodes() {
        let mut db = GraphDb::new();
        let a = db.node("a");
        let x = db.add_node();
        db.node("isolated");
        let r = db.label("r");
        db.add_edge(a, r, x);
        db.label("unused");
        assert_same(&db, &roundtrip(&db, 2));
    }

    /// Anonymous and isolated nodes, an unused label, a self-loop, and a
    /// removed-then-re-added edge (which moves to the end of its row).
    fn golden_graph() -> GraphDb {
        let mut db = GraphDb::new();
        let a = db.node("a");
        let x = db.add_node();
        let b = db.node("b");
        db.node("isolated");
        let r = db.label("r");
        let s = db.label("s");
        db.label("unused");
        let y = db.add_node();
        db.add_edge(a, r, x);
        db.add_edge(a, r, b);
        db.add_edge(b, s, a);
        db.add_edge(x, r, b);
        db.add_edge(a, s, y);
        db.add_edge(y, r, y);
        assert!(db.remove_edge(a, r, x));
        assert!(db.add_edge(a, r, x));
        db
    }

    /// The version-1 image of `golden_graph()` at 2 shards and epoch 7.
    /// The encoder must keep writing exactly these bytes and the decoder
    /// must keep loading them, so stores written by older builds still
    /// open.
    const GOLDEN_V1: &[u8] = &[
        0x52, 0x51, 0x53, 0x4e, 0x41, 0x50, 0x30, 0x31, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00,
        0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa5, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x18, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x33, 0xb8, 0xb5,
        0x30, 0x01, 0x00, 0x00, 0x00, 0x00, 0xbd, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x15,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa1, 0x51, 0x6c, 0x1d, 0x02, 0x00, 0x00, 0x00,
        0x00, 0xd2, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x82, 0x12, 0xe7, 0x3d, 0x01, 0x01, 0x00, 0x00, 0x00, 0x22, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa3, 0xd3, 0xf2,
        0x6d, 0x02, 0x01, 0x00, 0x00, 0x00, 0x38, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x34,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x73, 0xed, 0x7d, 0x34, 0x4e, 0x03, 0x23, 0x02,
        0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x72, 0x01, 0x00, 0x00, 0x00, 0x73, 0x06,
        0x00, 0x00, 0x00, 0x75, 0x6e, 0x75, 0x73, 0x65, 0x64, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x61, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x62,
        0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
        0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x01, 0x08,
        0x00, 0x00, 0x00, 0x69, 0x73, 0x6f, 0x6c, 0x61, 0x74, 0x65, 0x64, 0x00, 0x03, 0x00, 0x00,
        0x00, 0x05, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00,
    ];

    #[test]
    fn snapshot_bytes_match_the_version_1_golden() {
        let db = golden_graph();
        let config = StorageConfig {
            shards: 2,
            ..StorageConfig::default()
        };
        assert_eq!(VERSION, 1);
        assert_eq!(encode(&db, &config, 7), GOLDEN_V1);
        let (back, info) = decode(GOLDEN_V1, &PathBuf::from("golden")).unwrap();
        assert_eq!((info.shards, info.epoch), (2, 7));
        assert_same(&db, &back);
        let (a, x, r) = (NodeId(0), NodeId(1), LabelId(0));
        assert_eq!(
            back.step(a, Letter::forward(r)).collect::<Vec<_>>(),
            [NodeId(2), x]
        );
    }

    #[test]
    fn decode_collapses_duplicate_row_entries() {
        // A CSR row that names one destination twice (only a crafted file
        // has one) loads as a single edge, so the edge count stays exact.
        let mut db = GraphDb::new();
        let (a, b) = (db.node("a"), db.node("b"));
        let r = db.label("r");
        // lo, hi, labels, then offsets [0, 2, 2] and destinations [b, b].
        let edges = [0u32, 2, 1, 0, 2, 2, 1, 1];
        let sections = [
            (KIND_LABELS, encode_labels(&db)),
            (KIND_NODES, encode_nodes(&db, 0, 2)),
            (
                KIND_EDGES,
                edges.iter().flat_map(|w| w.to_le_bytes()).collect(),
            ),
        ]
        .map(|(kind, payload)| Section {
            kind,
            shard: 0,
            payload,
        });
        let bytes = image(2, 1, 1, 0, &sections);
        let (back, _) = decode(&bytes, &PathBuf::from("dup")).unwrap();
        assert_eq!(back.num_edges(), 1);
        assert_eq!(back.edges(r).collect::<Vec<_>>(), [(a, b)]);
        assert_eq!(back.step(b, Letter::backward(r)).collect::<Vec<_>>(), [a]);
    }

    #[test]
    fn shard_ranges_partition() {
        for n in [0u32, 1, 7, 64, 100] {
            for shards in [1u32, 2, 3, 4, 16] {
                let mut covered = 0;
                for i in 0..shards {
                    let (lo, hi) = shard_range(i, shards, n);
                    assert_eq!(lo, covered.min(n));
                    assert!(hi >= lo);
                    covered = hi.max(covered);
                }
                assert_eq!(covered, n);
            }
        }
    }

    #[test]
    fn decode_rejects_truncation_and_bitflips() {
        let db = generate::random_gnm(32, 80, &["a", "b"], 7);
        let config = StorageConfig::default();
        let bytes = encode(&db, &config, 0);
        let p = PathBuf::from("mem");
        // Truncation anywhere must fail closed.
        for cut in [0, 4, 8, 40, bytes.len() / 2, bytes.len() - 1] {
            let err = decode(&bytes[..cut], &p).unwrap_err();
            assert!(err.to_string().starts_with("error[storage]:"), "{err}");
        }
        // A flipped bit anywhere must fail closed (superblock or section
        // crc catches it).
        for pos in [9, 20, 60, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x40;
            match decode(&bad, &p) {
                Err(e) => assert!(e.to_string().starts_with("error[storage]:"), "{e}"),
                Ok((back, _)) => {
                    // Only acceptable if the flip landed in a section that
                    // decodes identically — impossible, since CRCs cover
                    // every byte. Equality would mean the flip was silent.
                    panic!(
                        "bit flip at {pos} went undetected (got {} nodes)",
                        back.num_nodes()
                    );
                }
            }
        }
    }
}
