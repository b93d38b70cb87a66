//! One flat cursor over cached adjacencies: the enumerator behind the
//! generic join ([`crate::generic_join`]) and Yannakakis's pass 4
//! ([`crate::yannakakis`]).  Each level reads one or more [`Adjacency`]
//! lists, keyed on the slots of one assignment that earlier levels wrote,
//! and writes its own slots; every completed assignment appends its output
//! slots to one flat buffer.  Past the output levels the cursor stops at
//! the first witness, so it emits each output prefix once.

// panda-lint: allow-file(P1) -- slots index the cursor's own assignment,
// one slot per column a level writes, and every level reads an adjacency.

use std::sync::Arc;

use panda_relation::fan_out::ordered_map;
use panda_relation::{Adjacency, Relation, Value};

/// One adjacency a level reads.
pub(crate) struct Reader {
    pub(crate) adjacency: Arc<Adjacency>,
    /// The slots holding the adjacency's key columns, in key order.  Empty
    /// while the adjacency has key columns: the candidates are its keys.
    pub(crate) key: Vec<usize>,
}

/// One level of a [`Cursor`].  A level with several readers writes one
/// slot, and its candidates are the intersection of their sorted lists.
pub(crate) struct Level {
    pub(crate) readers: Vec<Reader>,
    /// The slot each column of a candidate entry is written to.
    pub(crate) writes: Vec<usize>,
}

impl Level {
    /// Collects each reader's candidate list under the assignment in `row`
    /// into `lists`, smallest first; `false` when one has no group for its key.
    fn candidates<'a>(
        &'a self,
        row: &[Value],
        key: &mut Vec<Value>,
        lists: &mut Vec<&'a [Value]>,
    ) -> bool {
        lists.clear();
        for reader in &self.readers {
            if reader.key.len() < reader.adjacency.key_cols().len() {
                lists.push(reader.adjacency.keys());
                continue;
            }
            key.clear();
            key.extend(reader.key.iter().map(|&slot| row[slot]));
            match reader.adjacency.find(key) {
                Some(group) => lists.push(reader.adjacency.values(group)),
                None => return false,
            }
        }
        lists.sort_unstable_by_key(|list| list.len());
        true
    }
}

/// The entries of the smallest of `lists` (`width` values each) that every
/// other list holds; with several lists, `width` is one.
fn intersect<'l>(lists: &'l [&'l [Value]], width: usize) -> impl Iterator<Item = &'l [Value]> {
    let (smallest, rest) = lists.split_first().expect("a level reads at least one adjacency");
    smallest
        .chunks_exact(width)
        .filter(move |entry| rest.iter().all(|list| list.binary_search(&entry[0]).is_ok()))
}

/// A nested cursor: see the module docs.
pub(crate) struct Cursor {
    pub(crate) levels: Vec<Level>,
    /// How many leading levels write output slots.
    pub(crate) output_levels: usize,
    /// The slot of each output column.
    pub(crate) output: Vec<usize>,
}

impl Cursor {
    /// Enumerates every output row once.  With `threads > 1` the first
    /// level's candidates are split into contiguous chunks, run on their own
    /// threads and concatenated in candidate order, so the rows are the same
    /// at any thread count; a Boolean cursor runs as one chunk.  Needs a level.
    pub(crate) fn run(&self, threads: usize) -> Relation {
        let top = &self.levels[0];
        let row = vec![0; self.levels.iter().map(|level| level.writes.len()).sum()];
        let (mut key, mut lists) = (Vec::new(), Vec::new());
        let width = top.writes.len();
        let candidates: Vec<Value> = if top.candidates(&row, &mut key, &mut lists) {
            intersect(&lists, width).flatten().copied().collect()
        } else {
            Vec::new()
        };
        let entries = candidates.len() / width;
        let k = if self.output_levels == 0 { 1 } else { threads.clamp(1, entries.max(1)) };
        let chunks: Vec<&[Value]> = (0..k)
            .map(|i| &candidates[entries * i / k * width..entries * (i + 1) / k * width])
            .collect();
        let pieces = ordered_map(threads, &chunks, |chunk| {
            let (mut row, mut out) = (row.clone(), Vec::new());
            let mut scratch = vec![Vec::new(); self.levels.len()];
            let entries = chunk.chunks_exact(width);
            self.scan(0, entries, &mut row, &mut scratch[1..], &mut Vec::new(), &mut out);
            out
        });
        let mut pieces = pieces.into_iter();
        let mut out = pieces.next().unwrap_or_default();
        out.extend(pieces.flatten());
        Relation::from_flat(self.output.len(), out)
    }

    /// Writes each of `entries` into level `depth`'s slots and descends,
    /// stopping at the first witness past the output levels; `true` if any.
    fn scan<'a, 'e>(
        &'a self,
        depth: usize,
        entries: impl Iterator<Item = &'e [Value]>,
        row: &mut [Value],
        deeper: &mut [Vec<&'a [Value]>],
        key: &mut Vec<Value>,
        out: &mut Vec<Value>,
    ) -> bool {
        let writes = &self.levels[depth].writes;
        let mut found = false;
        for entry in entries {
            for (&slot, &value) in writes.iter().zip(entry) {
                row[slot] = value;
            }
            found |= self.descend(depth + 1, row, deeper, key, out);
            if found && depth >= self.output_levels {
                break;
            }
        }
        found
    }

    /// Extends the assignment in `row` through the levels from `depth`,
    /// appending the output slots of every completed assignment to `out`.
    fn descend<'a>(
        &'a self,
        depth: usize,
        row: &mut [Value],
        scratch: &mut [Vec<&'a [Value]>],
        key: &mut Vec<Value>,
        out: &mut Vec<Value>,
    ) -> bool {
        let Some(level) = self.levels.get(depth) else {
            out.extend(self.output.iter().map(|&slot| row[slot]));
            if self.output.is_empty() {
                out.push(1); // the empty tuple's marker (`Relation::from_flat`)
            }
            return true;
        };
        let (lists, deeper) = scratch.split_first_mut().expect("one scratch list per level");
        let start = out.len();
        let found = level.candidates(row, key, lists)
            && self.scan(depth, intersect(lists, level.writes.len()), row, deeper, key, out);
        // An existential level before an output one repeats its prefix's rows.
        if depth < self.output_levels && level.writes.iter().all(|s| !self.output.contains(s)) {
            let rows = Relation::from_flat(self.output.len(), out.split_off(start)).deduped();
            out.extend(rows.iter().flatten());
        }
        found
    }
}
