//! Graph-based community learning (§IV-D): "users running the same IoT
//! devices and similar automation applications could be considered as a
//! group or community, which should present similar behaviors. Thus, XLF
//! Core should leverage the knowledge obtained from the group to perform
//! data correlations."
//!
//! Implementation: a kNN similarity graph over per-home behaviour
//! features, label-propagation community detection, and a per-node
//! deviation score (how unlike its own community a node behaves).

use crate::kernel::dot;

/// Column block width of the similarity sweep: dot products are computed
/// for `SIM_BLOCK` candidate rows at a time so the flat feature matrix
/// streams through cache in contiguous runs.
const SIM_BLOCK: usize = 64;

/// A struct-of-arrays feature matrix: one flat row-major `Vec<f64>` plus
/// precomputed squared row norms, so RBF similarity reduces to
/// `exp(-γ(‖x‖² + ‖y‖² − 2x·y))` over contiguous dot products.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureMatrix {
    data: Vec<f64>,
    norms: Vec<f64>,
    rows: usize,
    dims: usize,
}

impl FeatureMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row stride (feature dimensions).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// One row as a contiguous slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dims..(i + 1) * self.dims]
    }

    /// Rebuilds from row vectors, reusing the flat storage.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths.
    pub fn fill_from_rows(&mut self, features: &[Vec<f64>]) {
        self.data.clear();
        self.rows = features.len();
        self.dims = features.first().map_or(0, Vec::len);
        for row in features {
            assert_eq!(row.len(), self.dims, "ragged feature matrix");
            self.data.extend_from_slice(row);
        }
        self.recompute_norms();
    }

    /// Rebuilds from an already-flat row-major slice.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != rows * dims`.
    pub fn fill_from_flat(&mut self, flat: &[f64], rows: usize, dims: usize) {
        self.refill(rows, dims, |data| data.extend_from_slice(flat));
    }

    /// Rebuilds in place: `fill` appends `rows × dims` values, row-major,
    /// straight to the emptied flat storage, so a caller that computes its
    /// rows keeps no buffer of its own.
    ///
    /// # Panics
    ///
    /// Panics if `fill` appends other than `rows * dims` values.
    pub fn refill(&mut self, rows: usize, dims: usize, fill: impl FnOnce(&mut Vec<f64>)) {
        self.data.clear();
        fill(&mut self.data);
        assert_eq!(self.data.len(), rows * dims, "flat feature matrix shape");
        self.rows = rows;
        self.dims = dims;
        self.recompute_norms();
    }

    /// Max-abs scales each dimension in place (same arithmetic as
    /// [`normalize_features`]) and refreshes the norms.
    pub fn normalize(&mut self) {
        if self.rows == 0 {
            return;
        }
        for d in 0..self.dims {
            let mut max = 0.0f64;
            for r in 0..self.rows {
                max = max.max(self.data[r * self.dims + d].abs());
            }
            if max > 1e-12 {
                for r in 0..self.rows {
                    self.data[r * self.dims + d] /= max;
                }
            }
        }
        self.recompute_norms();
    }

    fn recompute_norms(&mut self) {
        self.norms.clear();
        for i in 0..self.rows {
            let row = &self.data[i * self.dims..(i + 1) * self.dims];
            self.norms.push(dot(row, row));
        }
    }
}

/// The neighbour ordering both similarity paths share: weight descending,
/// index ascending — exactly what the pre-overhaul stable descending
/// sort produced for candidates generated in ascending index order.
#[inline]
fn neighbour_order(a: &(usize, f64), b: &(usize, f64)) -> std::cmp::Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Shared symmetrize step: if `i` lists `j`, ensure `j` lists `i`.
///
/// Only each node's own kNN list (its length recorded in `own` before
/// any append) is scanned: a reverse edge appended to `adj[j]` while
/// visiting `i` is never `i` itself at the time `j` is checked, so the
/// prefix-only scan gives the same graph as scanning whole lists — and
/// hub nodes with hundreds of reverse edges no longer cost a full scan
/// per membership test.
fn symmetrize(adj: &mut [Vec<(usize, f64)>], own: &mut Vec<usize>) {
    own.clear();
    own.extend(adj.iter().map(Vec::len));
    for i in 0..adj.len() {
        for e in 0..own[i] {
            let (j, w) = adj[i][e];
            if !adj[j][..own[j]].iter().any(|&(t, _)| t == i) {
                adj[j].push((i, w));
            }
        }
    }
}

/// Groups rows by the exact bit pattern of their features: `group[i]` is
/// row `i`'s group id, and `distinct` receives each group's first row
/// (with its norm), in first-appearance order, so all-distinct input
/// yields the identity grouping and a copy of the matrix. Equal bits
/// give equal norms, dot products and distances, so any member can
/// stand in for its group; `-0.0`/`+0.0` or distinct NaN payloads simply
/// land in different groups. `slots` is the open-addressed hash table
/// (group id per slot, `usize::MAX` empty), keyed by the row's norm:
/// equal rows have equal norms, so the norm is a hash that costs
/// nothing extra, and distinct rows sharing a norm are told apart by a
/// full comparison (at worst one per row and same-norm group, O(n·u),
/// within the O(n²) the gather and selection already cost).
fn group_rows(
    matrix: &FeatureMatrix,
    slots: &mut Vec<usize>,
    group: &mut Vec<usize>,
    distinct: &mut FeatureMatrix,
) {
    let n = matrix.rows();
    group.clear();
    distinct.data.clear();
    distinct.norms.clear();
    distinct.rows = 0;
    distinct.dims = matrix.dims;
    if n == 0 {
        return;
    }
    let bits = (2 * n).next_power_of_two().trailing_zeros();
    slots.clear();
    slots.resize(1 << bits, usize::MAX);
    let mask = slots.len() - 1;
    let same_bits = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    for i in 0..n {
        let (row, norm) = (matrix.row(i), matrix.norms[i]);
        let h = norm.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut s = (h >> (64 - bits)) as usize;
        loop {
            match slots[s] {
                usize::MAX => {
                    slots[s] = distinct.rows;
                    group.push(distinct.rows);
                    distinct.data.extend_from_slice(row);
                    distinct.norms.push(norm);
                    distinct.rows += 1;
                    break;
                }
                g if distinct.norms[g].to_bits() == norm.to_bits()
                    && same_bits(distinct.row(g), row) =>
                {
                    group.push(g);
                    break;
                }
                _ => s = (s + 1) & mask,
            }
        }
    }
}

/// Fills `dist` with the symmetric `u × u` squared distances between the
/// rows of `table`, every pair computed once. The diagonal is `+∞` when
/// the rows are the whole matrix (`distinct_rows`: a row is never its
/// own neighbour); otherwise a row stands for a group, and its diagonal
/// entry is the distance between two of its members, by the same
/// expression.
fn distance_table(table: &FeatureMatrix, distinct_rows: bool, dist: &mut Vec<f64>) {
    let u = table.rows();
    let norms = &table.norms;
    // No clear: every cell is overwritten (both mirror halves and the
    // diagonal), so a bare resize avoids a memset per call.
    dist.resize(u * u, 0.0);
    // Blocked dot-product sweep over SIM_BLOCK × SIM_BLOCK tiles of the
    // upper triangle: the feature-row panels stay hot across a tile,
    // and both the row writes and the mirrored column writes land in a
    // tile-sized (L2-resident) window instead of striding the full
    // table. Per-pair arithmetic is unaffected by the visit order.
    let mut ib = 0;
    while ib < u {
        let iend = (ib + SIM_BLOCK).min(u);
        let mut jb = ib;
        while jb < u {
            let jend = (jb + SIM_BLOCK).min(u);
            for i in ib..iend {
                let xi = table.row(i);
                for j in (jb.max(i + 1))..jend {
                    let d2 = (norms[i] + norms[j] - 2.0 * dot(xi, table.row(j))).max(0.0);
                    dist[i * u + j] = d2;
                    dist[j * u + i] = d2;
                }
            }
            jb = jend;
        }
        ib = iend;
    }
    for g in 0..u {
        dist[g * u + g] = if distinct_rows {
            f64::INFINITY
        } else {
            let x = table.row(g);
            (norms[g] + norms[g] - 2.0 * dot(x, x)).max(0.0)
        };
    }
}

/// Below this threshold an RBF similarity may be subnormal, where the
/// gap argument behind [`EXP_COLLISION_GAP`] no longer holds (subnormal
/// spacing is absolute, not relative).
const EXP_NORMAL_FLOOR: f64 = 1e-300;

/// Two `exp` arguments at least this far apart cannot produce the same
/// normal double: the true values differ by a factor `e^δ ≥ 1 + δ` with
/// `δ = 1e-13`, vastly more than the combined ~1 ulp (≈ 2·2⁻⁵³
/// relative) rounding slack of two faithfully-rounded `exp` calls.
const EXP_COLLISION_GAP: f64 = 1e-13;

/// `exp(a)` underflows to exactly +0 for every `a` below this (the true
/// round-to-zero cutoff is `ln(2⁻¹⁰⁷⁵) ≈ −745.13`).
const EXP_ZERO_ARG: f64 = -746.0;

/// Builds a symmetric kNN similarity graph: `adj[i]` lists `(j, weight)`
/// for the `k` nearest neighbours of `i` by RBF similarity.
pub fn similarity_graph(features: &[Vec<f64>], k: usize, gamma: f64) -> Vec<Vec<(usize, f64)>> {
    let mut scratch = GraphScratch::new();
    scratch.matrix.fill_from_rows(features);
    similarity_graph_into(k, gamma, &mut scratch);
    std::mem::take(&mut scratch.adj)
}

/// The blocked SoA similarity sweep over the rows already loaded into
/// `scratch.matrix` (used as is, not normalized), writing the graph into
/// the scratch's adjacency lists ([`GraphScratch::adjacency`]) so
/// epoch-by-epoch callers allocate nothing after warmup.
///
/// Four structural wins over [`similarity_graph_naive`], with
/// *identical* output bits:
///
/// * distances are computed once per pair of *distinct* rows. Rows are
///   grouped by the bit pattern of their features and the sweep fills
///   a `u × u` table over one representative per group. Equal bits
///   give equal distances, so row `i`'s distance to row `j` is its
///   group's table entry for `j`'s group — exactly what the dense
///   `n × n` sweep would compute. A fleet's homes run the same devices
///   and apps, so thousands of rows collapse to a few dozen groups;
///   when every row is distinct (`u == n`) the table *is* the dense
///   matrix and rows are read in place;
/// * each symmetric pair is computed once (`dot` is
///   commutative-safe, so mirroring the value is exact), halving the
///   dominant dot-product work;
/// * per-row top-k runs as an `O(n)` value selection over the dense
///   distance row plus a threshold/tie pass in index order — no
///   per-candidate tuples are built or sorted. With `u < n` groups it
///   costs about `O(u + k)`: all members of a group see the same `u`
///   distances, so each group's groups are ordered by distance once
///   per call, a row's k + 1 nearest are read off its group's order
///   (groups at one distance merged by row index, from member lists
///   kept in ascending index), and the tie pass classifies each group
///   once and merges the tied groups' members by row index;
/// * `exp` is deferred until after selection. Similarity
///   `exp(−γ·d²)` is monotone non-increasing in `d²`, so the k largest
///   similarities are the k smallest squared distances *as a value
///   multiset*, and only the k winners plus threshold ties ever need
///   their `exp`. What the monotone map does not preserve is the
///   naive path's tie-break (weight ties are broken by ascending
///   index, and distinct distances can collide to one similarity —
///   e.g. deep underflow to 0), so the fill pass below re-checks
///   similarity equality exactly where collisions are possible,
///   using cheap argument-gap and underflow bounds to skip the
///   `exp` calls that provably cannot collide.
pub fn similarity_graph_into(k: usize, gamma: f64, scratch: &mut GraphScratch) {
    let GraphScratch {
        matrix,
        distinct,
        slots,
        group,
        dist,
        members,
        starts,
        order,
        cursors,
        sel,
        own,
        adj,
        ..
    } = scratch;
    let n = matrix.rows();
    adj.truncate(n);
    for edges in adj.iter_mut() {
        edges.clear();
    }
    adj.resize_with(n, Vec::new);
    group_rows(matrix, slots, group, distinct);
    let u = distinct.rows();
    distance_table(distinct, u == n, dist);
    let grouped = u < n;
    if grouped {
        index_members(group, u, starts, members);
        order_groups(dist, u, order);
    }
    for i in 0..n {
        // Row i's distance to row j is its group's table row at j's
        // group. When every row is distinct, group ids are row indices
        // and this is the dense row, read in place (its +∞ at i is
        // skipped by every consumer).
        let g = group[i];
        let row = &dist[g * u..(g + 1) * u];
        let edges = &mut adj[i];
        if n <= k + 1 {
            // Everyone is a neighbour.
            for j in (0..n).filter(|&j| j != i) {
                edges.push((j, (-gamma * row[group[j]]).exp()));
            }
            edges.sort_unstable_by(neighbour_order);
            continue;
        }
        // `sel` receives the k + 1 smallest candidate distances, in
        // order; the extra slot witnesses the nearest *excluded* one.
        if grouped {
            let order = &order[g * u..(g + 1) * u];
            select_grouped(row, order, starts, members, i, k, sel);
        } else {
            select_dense(row, k, sel);
        }
        let dk = sel[k - 1].0;
        let d_next = sel[k].0;
        let a_k = -gamma * dk;
        let s_star = a_k.exp();
        // Fast path — sound when (a) the threshold similarity is a
        // normal double and the nearest excluded distance is too far
        // (in exp-argument terms) to collide onto it, and (b) no nearer
        // candidate collides *down* onto it (checked while taking the k
        // exps). Then similarity ties are distance ties, all retained,
        // already index-ordered.
        let mut fast = s_star > EXP_NORMAL_FLOOR && gamma * (d_next - dk) > EXP_COLLISION_GAP;
        if fast {
            for &(d2, j) in &sel[..k] {
                let s = if d2 == dk {
                    s_star
                } else {
                    let s = (-gamma * d2).exp();
                    if s == s_star {
                        fast = false; // collided down: index tie-break needed
                        break;
                    }
                    s
                };
                edges.push((j, s));
            }
            if !fast {
                edges.clear();
            }
        }
        if !fast {
            // Exact tie protocol. Strictly-better candidates first:
            // nearer than the threshold AND strictly more similar.
            // Every strictly-nearer candidate is in `sel` (at most
            // k − 1 of them, so at most k − 1 exps).
            for &(d2, j) in sel.iter() {
                if d2 < dk {
                    let s = (-gamma * d2).exp();
                    if s > s_star {
                        edges.push((j, s));
                    }
                }
            }
            // Fill the remaining slots with threshold-similarity ties in
            // ascending index order — exactly the set a stable
            // descending weight sort + truncate(k) keeps. Whether a
            // candidate ties depends on its distance alone, so the
            // grouped path classifies each group once and merges the
            // tied groups' members by row index.
            let tie = Threshold {
                gamma,
                dk,
                a_k,
                s_star,
            };
            let mut remaining = k - edges.len();
            if grouped {
                cursors.clear();
                for (h, &d2) in row.iter().enumerate() {
                    if let Some(weight) = tie.weight(d2) {
                        let (pos, end) = (starts[h], starts[h + 1]);
                        cursors.push(Cursor { pos, end, weight });
                    }
                }
                merge_members(cursors, members, i, remaining, |j, s| edges.push((j, s)));
            } else {
                for (j, &d2) in row.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if j == i {
                        continue;
                    }
                    if let Some(s) = tie.weight(d2) {
                        edges.push((j, s));
                        remaining -= 1;
                    }
                }
            }
        }
        edges.sort_unstable_by(neighbour_order);
    }
    symmetrize(adj, own);
}

/// Bounded (k+1)-smallest scan over a dense distance row: one compare
/// per candidate in the common case, instead of copying and
/// partitioning the whole row (the infinite diagonal sentinel sorts
/// last, so with k ≤ n − 2 the threshold entry is a real candidate).
/// Equal distances keep ascending-index order — insertion lands after
/// equal values and eviction pops the largest index among the worst
/// value — so `sel` ends as the first k + 1 candidates in (distance,
/// index) order.
fn select_dense(row: &[f64], k: usize, sel: &mut Vec<(f64, usize)>) {
    sel.clear();
    for (j, &d2) in row.iter().enumerate() {
        if sel.len() <= k {
            let pos = sel.partition_point(|&(v, _)| v <= d2);
            sel.insert(pos, (d2, j));
        } else if d2 < sel[k].0 {
            sel.pop();
            let pos = sel.partition_point(|&(v, _)| v <= d2);
            sel.insert(pos, (d2, j));
        }
    }
}

/// The k + 1 nearest candidates of row `skip`, read off its group's
/// order (its groups nearest first) and the groups' member lists, in
/// O(groups visited + k). `sel` holds the same k + 1 smallest
/// distances as [`select_dense`] finds, in order; it may differ only in
/// which members of one distance (a run) it names, and in the sign of
/// a zero distance within a run. No consumer can tell:
///
/// * every run below the threshold `dk` is taken whole by both, so the
///   entries below `dk` name the same rows, and they are all the exact
///   tie protocol reads from `sel`;
/// * the fast path reads `sel[..k]` only when `d_next > dk`, and then
///   the threshold run ends at position k − 1 and is taken whole too;
/// * `±0` compare equal and `exp(−γ·±0)` is `1` either way.
///
/// The same argument covers the dense row's `+∞` sentinel at `skip`,
/// which this walk leaves out: it can only fall in a run of `+∞`
/// distances, which is never below a threshold and never lets the fast
/// path run.
fn select_grouped(
    row: &[f64],
    order: &[usize],
    starts: &[usize],
    members: &[usize],
    skip: usize,
    k: usize,
    sel: &mut Vec<(f64, usize)>,
) {
    sel.clear();
    // The other n − 1 ≥ k + 1 rows fill `sel` before the groups run out.
    for &h in order {
        for &j in &members[starts[h]..starts[h + 1]] {
            if j != skip {
                sel.push((row[h], j));
                if sel.len() > k {
                    return;
                }
            }
        }
    }
}

/// The exact tie protocol's threshold: the k-th smallest distance `dk`,
/// its exp argument `a_k` and similarity `s_star`.
struct Threshold {
    gamma: f64,
    dk: f64,
    a_k: f64,
    s_star: f64,
}

impl Threshold {
    /// The weight a candidate at squared distance `d2` fills a slot
    /// with when its similarity equals the threshold's, else `None`.
    /// Cheap argument-gap and underflow bounds skip the `exp` calls
    /// that provably cannot collide.
    fn weight(&self, d2: f64) -> Option<f64> {
        if d2 == self.dk {
            return Some(self.s_star);
        }
        let a = -self.gamma * d2;
        if d2 > self.dk {
            if self.s_star > EXP_NORMAL_FLOOR {
                if self.a_k - a > EXP_COLLISION_GAP {
                    return None; // provably below the threshold
                }
            } else if a < EXP_ZERO_ARG {
                // Deep underflow: exp(a) is exactly +0.
                return (self.s_star == 0.0).then_some(0.0);
            }
        }
        let s = a.exp();
        (s == self.s_star).then_some(s)
    }
}

/// A read position in one group's member list, carrying the weight
/// every member of the group fills a slot with.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    pos: usize,
    end: usize,
    weight: f64,
}

/// Emits up to `take` rows of the cursors' member lists, ascending by
/// row index, leaving out row `skip`, each with its group's weight.
fn merge_members(
    cursors: &mut [Cursor],
    members: &[usize],
    skip: usize,
    mut take: usize,
    mut emit: impl FnMut(usize, f64),
) {
    while take > 0 {
        let mut next: Option<usize> = None;
        for (c, cursor) in cursors.iter().enumerate() {
            if cursor.pos < cursor.end
                && next.is_none_or(|b| members[cursor.pos] < members[cursors[b].pos])
            {
                next = Some(c);
            }
        }
        let Some(c) = next else { return };
        let cursor = &mut cursors[c];
        let j = members[cursor.pos];
        cursor.pos += 1;
        if j != skip {
            emit(j, cursor.weight);
            take -= 1;
        }
    }
}

/// Lists each group's rows: `members[starts[h]..starts[h + 1]]` are
/// group `h`'s rows in ascending index (a counting sort of `group`).
fn index_members(group: &[usize], u: usize, starts: &mut Vec<usize>, members: &mut Vec<usize>) {
    starts.clear();
    starts.resize(u + 1, 0);
    for &g in group {
        starts[g + 1] += 1;
    }
    for h in 0..u {
        starts[h + 1] += starts[h];
    }
    members.clear();
    members.resize(group.len(), 0);
    // Each group's start serves as its write position; afterwards it
    // holds the group's end, so shifting by one restores the starts.
    for (i, &g) in group.iter().enumerate() {
        members[starts[g]] = i;
        starts[g] += 1;
    }
    starts.rotate_right(1);
    starts[0] = 0;
}

/// Fills `order` with each group's `u` groups nearest first
/// (`order[g * u..(g + 1) * u]`, by the distance table; the order
/// within one distance is immaterial, see [`select_grouped`]).
fn order_groups(dist: &[f64], u: usize, order: &mut Vec<usize>) {
    order.clear();
    for g in 0..u {
        let row = &dist[g * u..(g + 1) * u];
        let start = order.len();
        order.extend(0..u);
        order[start..].sort_unstable_by(|&a, &b| row[a].total_cmp(&row[b]));
    }
}

/// The retained pre-overhaul similarity path: per-pair `Vec` walks and a
/// full stable sort per node (the correlator analogue of the DPI
/// overhaul's `inspect_naive`). Kept for A/B benchmarking and for the
/// bit-equality property tests — it shares [`dot`] and the
/// `‖x‖² + ‖y‖² − 2x·y` arithmetic with the blocked path, so both
/// produce bit-identical graphs.
pub fn similarity_graph_naive(
    features: &[Vec<f64>],
    k: usize,
    gamma: f64,
) -> Vec<Vec<(usize, f64)>> {
    let n = features.len();
    let norms: Vec<f64> = features.iter().map(|f| dot(f, f)).collect();
    let sim = |i: usize, j: usize| -> f64 {
        let d2 = (norms[i] + norms[j] - 2.0 * dot(&features[i], &features[j])).max(0.0);
        (-gamma * d2).exp()
    };
    let mut adj = vec![Vec::new(); n];
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        let mut neighbours: Vec<(usize, f64)> =
            (0..n).filter(|&j| j != i).map(|j| (j, sim(i, j))).collect();
        neighbours.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        neighbours.truncate(k);
        adj[i] = neighbours;
    }
    symmetrize(&mut adj, &mut Vec::new());
    adj
}

/// Label-propagation community detection: every node starts in its own
/// community and repeatedly adopts the weighted-majority label of its
/// neighbours. Deterministic: ties break toward the smaller label and
/// nodes update in index order.
pub fn label_propagation(adj: &[Vec<(usize, f64)>], max_iters: usize) -> Vec<usize> {
    let seed: Vec<usize> = (0..adj.len()).collect();
    label_propagation_seeded(adj, max_iters, &seed)
}

/// Label propagation from caller-supplied starting labels — the
/// incremental entry point. An online correlator carries each node's
/// label from the previous epoch into the next one, so propagation
/// re-converges from the last known community structure instead of from
/// scratch. Same deterministic update rule as [`label_propagation`].
///
/// # Panics
///
/// Panics if `seed.len() != adj.len()`.
pub fn label_propagation_seeded(
    adj: &[Vec<(usize, f64)>],
    max_iters: usize,
    seed: &[usize],
) -> Vec<usize> {
    assert_eq!(seed.len(), adj.len(), "one seed label per node");
    let mut labels: Vec<usize> = seed.to_vec();
    propagate_in_place(
        adj,
        max_iters,
        &mut labels,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    labels
}

/// The propagation core, mutating caller-owned labels (which must
/// already hold one seed label per node). Same deterministic update rule
/// as [`label_propagation`].
fn propagate_in_place(
    adj: &[Vec<(usize, f64)>],
    max_iters: usize,
    labels: &mut [usize],
    votes: &mut Vec<(usize, f64)>,
    dirty: &mut Vec<bool>,
) {
    let n = adj.len();
    // Worklist memoization: a node whose neighbourhood labels have not
    // changed since its last evaluation votes identically, so skipping
    // it is exact — each round visits the same changing nodes, in the
    // same order, with the same labels state, as the full-sweep
    // version, and the round count and final labels are bit-identical.
    dirty.clear();
    dirty.resize(n, true);
    for _ in 0..max_iters {
        let mut changed = false;
        for i in 0..n {
            if adj[i].is_empty() || !dirty[i] {
                continue;
            }
            dirty[i] = false;
            // Weighted vote of neighbour labels, accumulated in a
            // reused small vec instead of a fresh BTreeMap per node.
            // Degrees are O(k), so the linear label scan is cheap, and
            // the arithmetic is bit-identical to the map version:
            // per-label weights still sum in adjacency order
            // (first touch included — `0.0 + w` mirrors
            // `or_insert(0.0) += w`).
            votes.clear();
            for &(j, w) in &adj[i] {
                let l = labels[j];
                match votes.iter_mut().find(|&&mut (vl, _)| vl == l) {
                    Some(&mut (_, ref mut vw)) => *vw += w,
                    None => votes.push((l, 0.0 + w)),
                }
            }
            // Ascending-label fold replicating the former
            // `BTreeMap::iter().max_by(...)`: heaviest vote wins, equal
            // weights go to the smaller label.
            votes.sort_unstable_by_key(|&(l, _)| l);
            let mut best = votes[0];
            for &(l, w) in &votes[1..] {
                let ord = best
                    .1
                    .partial_cmp(&w)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(l.cmp(&best.0));
                if ord != std::cmp::Ordering::Greater {
                    best = (l, w);
                }
            }
            if labels[i] != best.0 {
                labels[i] = best.0;
                changed = true;
                // The vote of every neighbour now has a changed input.
                for &(j, _) in &adj[i] {
                    dirty[j] = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Deviation score per node: 1 − (mean similarity to same-community
/// neighbours). Nodes that joined a community but sit far from it — the
/// "one deviant home" of E-M6 — score high.
pub fn deviation_scores(adj: &[Vec<(usize, f64)>], labels: &[usize]) -> Vec<f64> {
    let mut scores = Vec::new();
    deviation_scores_into(adj, labels, &mut scores);
    scores
}

/// Fills `scores` with per-node deviation, reusing its allocation. Same
/// arithmetic as [`deviation_scores`] (weights summed in adjacency
/// order), but without collecting per-node weight vectors.
pub fn deviation_scores_into(adj: &[Vec<(usize, f64)>], labels: &[usize], scores: &mut Vec<f64>) {
    scores.clear();
    for (i, edges) in adj.iter().enumerate() {
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for &(j, w) in edges {
            if labels[j] == labels[i] {
                sum += w;
                count += 1;
            }
        }
        scores.push(if count == 0 {
            1.0
        } else {
            1.0 - sum / count as f64
        });
    }
}

/// Scales each feature dimension by its max absolute value so raw counts
/// do not dominate the RBF distance. Dimensions that are zero everywhere
/// are left untouched.
pub fn normalize_features(features: &mut [Vec<f64>]) {
    let Some(first) = features.first() else {
        return;
    };
    for d in 0..first.len() {
        let max = features.iter().map(|f| f[d].abs()).fold(0.0f64, f64::max);
        if max > 1e-12 {
            for f in features.iter_mut() {
                f[d] /= max;
            }
        }
    }
}

/// Output of the batch community-scoring entry point.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityReport {
    /// Community label per node (label-propagation output).
    pub labels: Vec<usize>,
    /// Deviation score per node (high = unlike its own community).
    pub scores: Vec<f64>,
}

/// Batch entry point for fleet-scale graph scoring: normalizes the
/// feature matrix, builds the kNN similarity graph, runs deterministic
/// label propagation, and scores per-node deviation — the whole E-M6
/// pipeline in one call. `k` is clamped to the population size.
pub fn community_report(
    features: &[Vec<f64>],
    k: usize,
    gamma: f64,
    max_iters: usize,
) -> CommunityReport {
    let mut scratch = GraphScratch::new();
    scratch.matrix.fill_from_rows(features);
    community_report_into(k, gamma, max_iters, None, &mut scratch);
    CommunityReport {
        labels: std::mem::take(&mut scratch.labels),
        scores: std::mem::take(&mut scratch.scores),
    }
}

/// Reusable working set for the whole community pipeline: the SoA
/// feature matrix, the row-grouping buffers, the distinct-row distance
/// table and selection scratch, the adjacency lists, and the
/// label/score outputs. A long-lived correlator keeps one of these
/// across epochs so the steady-state pipeline allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct GraphScratch {
    /// Input: callers fill this (e.g. [`FeatureMatrix::refill`])
    /// before [`community_report_into`]; it is normalized in place.
    pub matrix: FeatureMatrix,
    /// The first row of each group of bit-identical rows.
    distinct: FeatureMatrix,
    /// Row-grouping hash table (group id per slot).
    slots: Vec<usize>,
    /// Group id per row.
    group: Vec<usize>,
    /// `u × u` squared distances between group representatives.
    dist: Vec<f64>,
    /// Each group's rows in ascending index, `starts` apart.
    members: Vec<usize>,
    /// Offset of each group's rows in `members` (`u + 1` entries).
    starts: Vec<usize>,
    /// Each group's groups by distance, `u` per group.
    order: Vec<usize>,
    /// The tie-fill merge buffer: one cursor per tied group.
    cursors: Vec<Cursor>,
    sel: Vec<(f64, usize)>,
    /// Own kNN-list length per node, recorded before symmetrizing.
    own: Vec<usize>,
    votes: Vec<(usize, f64)>,
    dirty: Vec<bool>,
    adj: Vec<Vec<(usize, f64)>>,
    labels: Vec<usize>,
    scores: Vec<f64>,
}

impl GraphScratch {
    /// Creates an empty working set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The kNN graph from the last run: `(neighbour, weight)` per node.
    pub fn adjacency(&self) -> &[Vec<(usize, f64)>] {
        &self.adj
    }

    /// Community label per node from the last run.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Deviation score per node from the last run.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }
}

/// Scratch-buffer core of the community pipeline: consumes the features
/// already loaded into `scratch.matrix` (normalizing them in place),
/// rebuilds the kNN graph, propagates labels, and scores deviation,
/// leaving the results in `scratch.labels()` / `scratch.scores()`.
/// With `seed_labels` `None` the output is [`community_report`]'s; the
/// only difference is buffer reuse. When `seed_labels` is given (one
/// label per row), label propagation starts from those labels instead of
/// from the identity assignment: an epoch-by-epoch correlator feeds the
/// previous epoch's labels back in so community structure is refined,
/// not rebuilt, at each step.
///
/// # Panics
///
/// Panics if `seed_labels` is `Some` with a length other than the matrix
/// row count.
pub fn community_report_into(
    k: usize,
    gamma: f64,
    max_iters: usize,
    seed_labels: Option<&[usize]>,
    scratch: &mut GraphScratch,
) {
    let n = scratch.matrix.rows();
    scratch.labels.clear();
    scratch.scores.clear();
    if n == 0 {
        return;
    }
    scratch.matrix.normalize();
    let k = k.min(n.saturating_sub(1)).max(1);
    similarity_graph_into(k, gamma, scratch);
    match seed_labels {
        Some(seed) => {
            assert_eq!(seed.len(), n, "one seed label per node");
            scratch.labels.extend_from_slice(seed);
        }
        None => scratch.labels.extend(0..n),
    }
    propagate_in_place(
        &scratch.adj,
        max_iters,
        &mut scratch.labels,
        &mut scratch.votes,
        &mut scratch.dirty,
    );
    deviation_scores_into(&scratch.adj, &scratch.labels, &mut scratch.scores);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight clusters of homes plus one outlier.
    fn features() -> Vec<Vec<f64>> {
        let mut f = Vec::new();
        for i in 0..5 {
            f.push(vec![0.0 + i as f64 * 0.01, 0.0]);
        }
        for i in 0..5 {
            f.push(vec![10.0 + i as f64 * 0.01, 10.0]);
        }
        f.push(vec![5.0, 5.0]); // the deviant home
        f
    }

    #[test]
    fn knn_graph_connects_within_clusters() {
        let adj = similarity_graph(&features(), 3, 0.5);
        // Node 0's neighbours should all be in the first cluster.
        for &(j, _) in &adj[0] {
            assert!(j < 5 || j == 10, "node 0 linked to {j}");
        }
    }

    #[test]
    fn label_propagation_finds_two_main_communities() {
        let adj = similarity_graph(&features(), 3, 0.5);
        let labels = label_propagation(&adj, 50);
        // All of cluster one shares a label; all of cluster two shares a
        // (different) label.
        assert!(labels[..5].iter().all(|&l| l == labels[0]));
        assert!(labels[5..10].iter().all(|&l| l == labels[5]));
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn deviant_home_scores_highest() {
        let adj = similarity_graph(&features(), 3, 0.5);
        let labels = label_propagation(&adj, 50);
        let scores = deviation_scores(&adj, &labels);
        let deviant = 10usize;
        for i in 0..10 {
            assert!(
                scores[deviant] > scores[i],
                "home {i} scored {} vs deviant {}",
                scores[i],
                scores[deviant]
            );
        }
    }

    #[test]
    fn isolated_nodes_score_max_deviation() {
        let adj = vec![vec![], vec![(0usize, 0.9)]];
        let labels = vec![0, 0];
        let scores = deviation_scores(&adj, &labels);
        assert_eq!(scores[0], 1.0);
    }

    #[test]
    fn propagation_is_deterministic() {
        let adj = similarity_graph(&features(), 3, 0.5);
        assert_eq!(label_propagation(&adj, 50), label_propagation(&adj, 50));
    }

    #[test]
    fn normalize_scales_each_dimension_to_unit_max() {
        let mut f = vec![vec![10.0, 0.0], vec![-5.0, 0.0]];
        normalize_features(&mut f);
        assert_eq!(f, vec![vec![1.0, 0.0], vec![-0.5, 0.0]]);
    }

    #[test]
    fn community_report_flags_the_outlier_end_to_end() {
        // Scale one dimension up so the raw features would mislead an
        // unnormalized graph; the batch entry point normalizes first.
        let mut scaled = features();
        for f in &mut scaled {
            f[0] *= 1000.0;
        }
        let report = community_report(&scaled, 3, 8.0, 50);
        assert_eq!(report.labels.len(), 11);
        let deviant = 10usize;
        for i in 0..10 {
            assert!(report.scores[deviant] > report.scores[i]);
        }
        // And it is reproducible.
        assert_eq!(report, community_report(&scaled, 3, 8.0, 50));
    }

    #[test]
    fn seeded_propagation_with_identity_seed_matches_unseeded() {
        let adj = similarity_graph(&features(), 3, 0.5);
        let identity: Vec<usize> = (0..adj.len()).collect();
        assert_eq!(
            label_propagation_seeded(&adj, 50, &identity),
            label_propagation(&adj, 50)
        );
    }

    #[test]
    fn seeded_propagation_preserves_converged_structure() {
        // Feeding a converged labelling back in is a fixed point: the
        // incremental pass keeps the communities it was given.
        let adj = similarity_graph(&features(), 3, 0.5);
        let converged = label_propagation(&adj, 50);
        let again = label_propagation_seeded(&adj, 50, &converged);
        assert_eq!(again, converged);
        // And the seeded scratch pipeline agrees end-to-end.
        let batch = community_report(&features(), 3, 0.5, 50);
        let mut seeded = GraphScratch::new();
        seeded.matrix.fill_from_rows(&features());
        community_report_into(3, 0.5, 50, Some(&batch.labels), &mut seeded);
        assert_eq!(seeded.labels(), &batch.labels[..]);
        assert_eq!(seeded.scores(), &batch.scores[..]);
    }

    #[test]
    fn community_report_handles_tiny_populations() {
        assert!(community_report(&[], 3, 1.0, 10).labels.is_empty());
        let one = community_report(&[vec![1.0]], 3, 1.0, 10);
        assert_eq!(one.labels, vec![0]);
        assert_eq!(one.scores, vec![1.0]); // no neighbours at all
    }
}
