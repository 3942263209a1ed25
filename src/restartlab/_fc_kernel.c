/* C kernels for orders up to 64: the completion search of solver.py at both
 * propagation levels, its Regin line filter on its own (fc_regin_filter, for
 * tests/reference.py), the two seeded instance generators of latin.py, the
 * round loop of policy.simulate_policy, and numpy's PCG64 seeding and
 * Generator.permutation, for those rounds and learn.tune_kappa's holdout
 * split.  Its constants, state structs and entry points are declared in
 * _fc_kernel.h, which fc_kernel.py also hands to cffi.
 *
 * One fc_state holds a run's mutable state: bitmask domains (bit s-1 set
 * means symbol s is still possible), assigned symbols (0 = open), open-cell
 * counts per line (rows 0..n-1, then columns), the trail, the propagation
 * queues, the depth-first frame stack, the run counters, the running
 * statistics of the traced feature rows and, optionally, a buffer of the
 * rows themselves.  Every buffer is owned by the caller, and fc_init resets
 * the state for the next run.  The step order (peer order, FIFO queues,
 * dirty-line order, pruning order) mirrors the Python SearchState of
 * tests/reference.py exactly, so both give identical counters and
 * trajectories, and a traced row holds the 14 floats its snapshot
 * computes.
 *
 * Two more views of the domains, channelled as in Dotu, del Val and
 * Cebrian, "Redundant Modeling for the QuasiGroup Completion Problem" (CP
 * 2003), let a choice point touch only the cells it changes: per line and
 * symbol, the mask of the line's cells whose domain holds the symbol, which
 * forward checking walks instead of the line; and per domain size, the open
 * cells of that size row by row, whose smallest non-empty bucket lists the
 * Brelaz candidates.  Every domain change updates both and the trail
 * restores them, so undo_to keeps them exact too.
 *
 * The search and the generators draw from an mt_state, the Mersenne
 * Twister state that mt_seed sets up as random.Random(seed) seeds its own
 * (CPython's layout: 624 words and an index).  Each entry point reads through
 * one block reader (mt_open, mt_next, mt_close), which regenerates and
 * tempers the 624-word state a block at a time, and takes _randbelow and
 * shuffle steps as CPython does, so it consumes exactly the stream the
 * Python code would and makes the same choices.  The balanced hole pattern
 * rejects a shuffle at its first taken cell and only consumes the words of
 * the steps left.
 *
 * pcg64_price_rounds runs every trial of a restart-policy simulation to its
 * first win, round by round, on a copy of numpy's PCG64 state: the same
 * 128-bit LCG and XSL-RR output, the same buffered 32-bit half-words and the
 * same Lemire rejection as numpy's Generator.integers, and the same doubles
 * as its Generator.random, so it draws exactly what the numpy round loop of
 * tests/reference.py draws.  A round that no run can win only advances the
 * stream past its draws without making them: when no word can be rejected
 * (a power-of-two row count, among others) the LCG jumps there in
 * O(log draws) multiplications, else it steps word by word, testing only
 * each word's acceptance.  pcg64_seed sets the state up as
 * np.random.PCG64(seed) does, and pcg64_permutation draws what
 * Generator.permutation draws.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

#include "_fc_kernel.h"

static void mark_dirty(fc_state *st, int line)
{
    if (!st->dirty_flag[line]) {
        int n2 = 2 * st->n;
        st->dirty_flag[line] = 1;
        st->dirty[(st->dirty_head + st->dirty_len++) % n2] = line;
    }
}

static void clear_dirty(fc_state *st)
{
    int n2 = 2 * st->n;
    for (; st->dirty_len > 0; st->dirty_len--) {
        st->dirty_flag[st->dirty[st->dirty_head]] = 0;
        st->dirty_head = (st->dirty_head + 1) % n2;
    }
}

/* A cell as the trail and the queue hold it, row << 6 | column (orders up to
 * 64), so that undo_to and propagate find both its lines without dividing. */
#define PLACE(r, col) ((r) << 6 | (col))
#define PLACE_ROW(x) ((x) >> 6)
#define PLACE_COL(x) ((x) & 63)

/* Flip cell (r, col) in the line-symbol masks of its row and its column for
 * each value in m. */
static void flip_values(fc_state *st, uint64_t m, int r, int col)
{
    int n = st->n;
    for (; m; m &= m - 1) {
        uint64_t *ls = st->line_symbol + __builtin_ctzll(m) * 2 * n;
        ls[r] ^= (uint64_t)1 << col;
        ls[n + col] ^= (uint64_t)1 << r;
    }
}

/* Flip open cell (r, col) in the bucket of domain size k. */
static void flip_size(fc_state *st, int k, int r, int col)
{
    st->size_rows[k * st->n + r] ^= (uint64_t)1 << col;
}

static void assign(fc_state *st, int c, int r, int col, int s)
{
    int n = st->n;
    int t = st->trail_len++;
    uint64_t bit = (uint64_t)1 << (s - 1);
    st->trail_cell[t] = ~PLACE(r, col);
    st->trail_bits[t] = st->domain[c];
    flip_values(st, st->domain[c] ^ bit, r, col);
    flip_size(st, st->domain_size[c], r, col);
    st->domain[c] = bit;
    st->symbol[c] = s;
    st->unassigned_count--;
    st->line_unassigned[r]--;
    st->line_unassigned[n + col]--;
    if (st->regin) {
        mark_dirty(st, r);
        mark_dirty(st, n + col);
    }
}

/* Remove value v (symbol v + 1), which it holds, from open cell c = (r, col),
 * on the trail and in both views; returns the domain left. */
static uint64_t remove_value(fc_state *st, int c, int r, int col, int v)
{
    int k = st->domain_size[c]--;
    int t = st->trail_len++;
    uint64_t bit = (uint64_t)1 << v;
    st->domain[c] ^= bit;
    st->trail_cell[t] = PLACE(r, col);
    st->trail_bits[t] = bit;
    flip_values(st, bit, r, col);
    flip_size(st, k, r, col);
    flip_size(st, k - 1, r, col);
    return st->domain[c];
}

/* Remove value v from peer (r, col), whose domain holds it; 0 on
 * contradiction: the peer is assigned v + 1, or its domain empties. */
static int prune(fc_state *st, int r, int col, int v, int *tail)
{
    int c = r * st->n + col;
    uint64_t d;
    if (st->symbol[c] != 0)
        return 0;
    d = remove_value(st, c, r, col, v);
    if (d == 0)
        return 0;
    if (st->regin) {
        mark_dirty(st, r);
        mark_dirty(st, st->n + col);
    }
    if ((d & (d - 1)) == 0) {
        assign(st, c, r, col, __builtin_ctzll(d) + 1);
        st->forced_assignments++;
        st->queue[(*tail)++] = PLACE(r, col);
    }
    return 1;
}

/* Maximum bipartite matching of k <= 64 left nodes against the values 0..63
 * by augmenting paths: adj[u] has bit v set when u may take value v.  Left
 * nodes are matched in index order, each by a depth-first search that tries
 * values in ascending order.  Fills match[u] (-1: unmatched) and owner[v]
 * (-1: free) and returns the number of matched left nodes. */
static int augment(const uint64_t *adj, int u, uint64_t *visited, int *match, int *owner)
{
    uint64_t m;
    for (m = adj[u]; m; m &= m - 1) {
        int v = __builtin_ctzll(m);
        if (*visited >> v & 1)
            continue;
        *visited |= (uint64_t)1 << v;
        if (owner[v] < 0 || augment(adj, owner[v], visited, match, owner)) {
            match[u] = v;
            owner[v] = u;
            return 1;
        }
    }
    return 0;
}

static int bipartite_match(const uint64_t *adj, int k, int *match, int *owner)
{
    int u, v, size = 0;
    for (v = 0; v < MAX_N; v++)
        owner[v] = -1;
    for (u = 0; u < k; u++) {
        uint64_t visited = 0;
        match[u] = -1;
        size += augment(adj, u, &visited, match, owner);
    }
    return size;
}

/* Alldiff filtering of one line (Regin, AAAI 1994) on the domains of its k
 * open cells: sets prune[u] to the values of cell u that no maximum matching
 * uses, and returns 0 when the cells cannot take distinct values.  A value
 * survives iff its edge is matched, lies on an alternating path from a free
 * value, or lies on an alternating cycle.  Every cell has one out-edge (to
 * its matched value) and a matched value one in-edge, so an edge (u, v) with
 * v matched to w lies on a cycle iff w is reachable from u in the graph of
 * cells where a -> b when b may take a's matched value; the strongly
 * connected components reduce to that reachability. */
static int regin_prunings(const uint64_t *doms, int k, uint64_t *prune)
{
    int match[MAX_N], owner[MAX_N], u;
    uint64_t cells_of[MAX_N] = {0}, out[MAX_N];
    uint64_t all = 0, matched = 0, reach, frontier, seen = 0, m;
    if (bipartite_match(doms, k, match, owner) < k)
        return 0;
    for (u = 0; u < k; u++) {
        for (m = doms[u]; m; m &= m - 1)
            cells_of[__builtin_ctzll(m)] |= (uint64_t)1 << u;
        all |= doms[u];
        matched |= (uint64_t)1 << match[u];
    }
    /* values on an alternating path from a free value */
    reach = frontier = all & ~matched;
    while (frontier) {
        int v = __builtin_ctzll(frontier);
        uint64_t us = cells_of[v] & ~seen;
        frontier &= frontier - 1;
        if (owner[v] >= 0)
            us &= ~((uint64_t)1 << owner[v]);
        seen |= us;
        for (; us; us &= us - 1) {
            uint64_t mb = (uint64_t)1 << match[__builtin_ctzll(us)];
            if (!(reach & mb)) {
                reach |= mb;
                frontier |= mb;
            }
        }
    }
    for (u = 0; u < k; u++)
        out[u] = cells_of[match[u]] & ~((uint64_t)1 << u);
    for (u = 0; u < k; u++) {
        uint64_t cand = doms[u] & ~reach & ~((uint64_t)1 << match[u]);
        uint64_t from_u, front;
        prune[u] = 0;
        if (!cand)
            continue;
        from_u = front = out[u];
        while (front) {
            uint64_t fresh = out[__builtin_ctzll(front)] & ~from_u;
            front &= front - 1;
            from_u |= fresh;
            front |= fresh;
        }
        for (; cand; cand &= cand - 1) {
            int v = __builtin_ctzll(cand);
            if (!(from_u >> owner[v] & 1))
                prune[u] |= (uint64_t)1 << v;
        }
    }
    return 1;
}

/* Filter one dirty line and apply its prunings by cell position, then value,
 * both ascending; 0 on contradiction. */
static int filter_line(fc_state *st, int line, int *tail)
{
    int n = st->n, places[MAX_N], k = 0, i;
    uint64_t doms[MAX_N], prunings[MAX_N];
    for (i = 0; i < n; i++) {
        int x = line < n ? PLACE(line, i) : PLACE(i, line - n);
        int c = PLACE_ROW(x) * n + PLACE_COL(x);
        if (st->symbol[c] == 0) {
            places[k] = x;
            doms[k++] = st->domain[c];
        }
    }
    if (k <= 1)
        return 1;
    st->budget -= k;
    if (!regin_prunings(doms, k, prunings))
        return 0;
    for (i = 0; i < k; i++) {
        int r = PLACE_ROW(places[i]), col = PLACE_COL(places[i]), c = r * n + col;
        uint64_t m;
        for (m = prunings[i]; m; m &= m - 1) {
            uint64_t d = remove_value(st, c, r, col, __builtin_ctzll(m));
            st->alldiff_prunings++;
            mark_dirty(st, line < n ? n + col : r);
            if ((d & (d - 1)) == 0) {
                assign(st, c, r, col, __builtin_ctzll(d) + 1);
                st->forced_assignments++;
                st->queue[(*tail)++] = places[i];
            }
        }
    }
    return 1;
}

/* Forward-check the queued assignments, then filter one dirty line (alldiff
 * only), until both queues are empty; 0 on contradiction.  An assigned cell
 * visits the peers whose domains hold its symbol, its row's in column order
 * and then its column's in row order: the peers a scan of the whole line in
 * that order would change, in the same order.  An assigned peer among them
 * holds the symbol itself, the contradiction. */
static int propagate(fc_state *st, int tail)
{
    int n = st->n;
    int head = 0;
    for (;;) {
        int line;
        while (head < tail) {
            int x = st->queue[head++];
            int r = PLACE_ROW(x), col = PLACE_COL(x);
            int v = st->symbol[r * n + col] - 1;
            const uint64_t *ls = st->line_symbol + v * 2 * n;
            uint64_t m;
            for (m = ls[r] & ~((uint64_t)1 << col); m; m &= m - 1)
                if (!prune(st, r, __builtin_ctzll(m), v, &tail))
                    return 0;
            for (m = ls[n + col] & ~((uint64_t)1 << r); m; m &= m - 1)
                if (!prune(st, __builtin_ctzll(m), col, v, &tail))
                    return 0;
        }
        if (st->dirty_len == 0)
            return 1;
        line = st->dirty[st->dirty_head];
        st->dirty_head = (st->dirty_head + 1) % (2 * n);
        st->dirty_len--;
        st->dirty_flag[line] = 0;
        if (!filter_line(st, line, &tail))
            return 0;
    }
}

/* Set up a run from the instance in st->givens (row-major, 0 for a hole):
 * copy it into symbol and reset every run field (the counters, the frames,
 * the trail, the dirty ring and the running statistics), so that one state
 * serves any number of runs, each started here.  Then the hole list, the
 * open cells per line and every domain, as SearchState in tests/reference.py
 * sets them up, then the two views of the domains.  Returns 0, the state
 * unusable, when a given symbol repeats in its line, else 1. */
int fc_init(fc_state *st)
{
    int n = st->n, k = 0, r, c;
    uint64_t full = n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
    uint64_t row_used[MAX_N] = {0}, col_used[MAX_N] = {0};
    memcpy(st->symbol, st->givens, sizeof(int) * n * n);
    memset(st->line_symbol, 0, sizeof(uint64_t) * 2 * n * n);
    memset(st->size_rows, 0, sizeof(uint64_t) * (n + 1) * n);
    memset(st->dirty_flag, 0, sizeof(int) * 2 * n);
    memset(st->running, 0, sizeof st->running);
    st->trail_len = st->dirty_head = st->dirty_len = st->n_frames = 0;
    st->new_node = 1;
    st->choice_points = st->backtracks = st->contradictions = 0;
    st->forced_assignments = st->alldiff_prunings = 0;
    st->depth = st->max_depth = st->node_visits = st->node_depth_sum = 0;
    st->min_leaf_depth = -1;
    st->trace_left = 0;
    for (r = 0; r < 2 * n; r++)
        st->line_unassigned[r] = 0;
    for (r = 0; r < n; r++)
        for (c = 0; c < n; c++) {
            int i = r * n + c, s = st->symbol[i];
            if (s == 0) {
                st->hole_cells[k++] = i;
                st->line_unassigned[r]++;
                st->line_unassigned[n + c]++;
            } else {
                uint64_t bit = (uint64_t)1 << (s - 1);
                if ((row_used[r] | col_used[c]) & bit)
                    return 0;
                st->domain[i] = bit;
                row_used[r] |= bit;
                col_used[c] |= bit;
            }
        }
    for (r = 0; r < k; r++) {
        int i = st->hole_cells[r];
        st->domain[i] = full & ~(row_used[i / n] | col_used[i % n]);
    }
    st->n_holes = st->unassigned_count = k;
    for (r = 0; r < n; r++)
        for (c = 0; c < n; c++) {
            int i = r * n + c, size = 0;
            uint64_t m;
            for (m = st->domain[i]; m; m &= m - 1)
                size++;
            st->domain_size[i] = size;
            flip_values(st, st->domain[i], r, c);
            if (st->symbol[i] == 0)
                flip_size(st, size, r, c);
        }
    return 1;
}

/* Propagate the given cells to a fixpoint; a contradiction counts as one. */
int fc_propagate_root(fc_state *st)
{
    int tail = 0, k;
    clear_dirty(st);
    for (k = 0; k < st->n_holes; k++) {
        int c = st->hole_cells[k];
        uint64_t d;
        if (st->symbol[c] != 0)
            continue;
        d = st->domain[c];
        if (d == 0) {
            st->contradictions++;
            return 0;
        }
        if ((d & (d - 1)) == 0) {
            int r = c / st->n, col = c % st->n;
            assign(st, c, r, col, __builtin_ctzll(d) + 1);
            st->forced_assignments++;
            st->queue[tail++] = PLACE(r, col);
        }
    }
    if (st->regin)
        for (k = 0; k < 2 * st->n; k++)
            mark_dirty(st, k);
    if (propagate(st, tail))
        return 1;
    st->contradictions++;
    return 0;
}

/* Undo the trail back to its first `mark` entries, the views included. */
static void undo_to(fc_state *st, int mark)
{
    int n = st->n;
    while (st->trail_len > mark) {
        int t = --st->trail_len;
        int x = st->trail_cell[t], place = x >= 0 ? x : ~x;
        int r = PLACE_ROW(place), col = PLACE_COL(place), c = r * n + col;
        uint64_t bits = st->trail_bits[t];
        if (x >= 0) {
            int k = ++st->domain_size[c];
            st->domain[c] |= bits;
            flip_values(st, bits, r, col);
            flip_size(st, k - 1, r, col);
            flip_size(st, k, r, col);
        } else {
            flip_values(st, bits ^ st->domain[c], r, col);
            flip_size(st, st->domain_size[c], r, col);
            st->symbol[c] = 0;
            st->domain[c] = bits;
            st->unassigned_count++;
            st->line_unassigned[r]++;
            st->line_unassigned[n + col]++;
        }
    }
}

/* ---- CPython's Mersenne Twister stream ---- */

#define MT_M 397

/* A reader hands out the tempered words of an mt_state, as CPython's
 * genrand_uint32 does, a block at a time: out holds the tempered words of the
 * current block from `next` on.  The twist regenerates the block and the
 * tempering fills out in four-word vectors.  The state's index is only
 * written back by mt_close, so every entry point that opens a reader closes
 * it before it returns. */
typedef struct {
    mt_state *rng;
    int next; /* next word of out; MT_N means regenerate first */
    uint32_t out[MT_N];
} mt_reader;

typedef uint32_t v4u __attribute__((vector_size(16)));

static v4u load4(const uint32_t *p)
{
    v4u v;
    memcpy(&v, p, sizeof v);
    return v;
}

static void store4(uint32_t *p, v4u v)
{
    memcpy(p, &v, sizeof v);
}

/* Temper the words from `from` (rounded down to a vector) to the block's end. */
static void mt_temper(mt_reader *rd, int from)
{
    const uint32_t *mt = rd->rng->mt;
    int i;
    for (i = from & ~3; i < MT_N; i += 4) {
        v4u y = load4(mt + i);
        y ^= y >> 11;
        y ^= (y << 7) & 0x9d2c5680U;
        y ^= (y << 15) & 0xefc60000U;
        y ^= y >> 18;
        store4(rd->out + i, y);
    }
}

/* One twist step: the word `far` ahead (or behind) mixed with the top bit of
 * u and the low bits of v, without a branch on v's lowest bit. */
#define MT_TWIST(far, u, v)                                                    \
    ((far) ^ ((((u) & 0x80000000U) | ((v) & 0x7fffffffU)) >> 1) ^               \
     (-((v) & 1U) & 0x9908b0dfU))

/* Regenerate the block, as genrand_uint32 does when its index reaches MT_N,
 * four words at a time where no word depends on another of the four. */
static void mt_refill(mt_reader *rd)
{
    uint32_t *mt = rd->rng->mt;
    int kk;
    for (kk = 0; kk + 4 <= MT_N - MT_M; kk += 4)
        store4(mt + kk, MT_TWIST(load4(mt + kk + MT_M), load4(mt + kk), load4(mt + kk + 1)));
    for (; kk < MT_N - MT_M; kk++)
        mt[kk] = MT_TWIST(mt[kk + MT_M], mt[kk], mt[kk + 1]);
    for (; kk + 4 <= MT_N - 1; kk += 4)
        store4(mt + kk, MT_TWIST(load4(mt + kk + (MT_M - MT_N)), load4(mt + kk), load4(mt + kk + 1)));
    for (; kk < MT_N - 1; kk++)
        mt[kk] = MT_TWIST(mt[kk + (MT_M - MT_N)], mt[kk], mt[kk + 1]);
    mt[MT_N - 1] = MT_TWIST(mt[MT_M - 1], mt[MT_N - 1], mt[0]);
    mt_temper(rd, 0);
    rd->next = 0;
}

static void mt_open(mt_reader *rd, mt_state *rng)
{
    rd->rng = rng;
    rd->next = rng->index;
    mt_temper(rd, rng->index);
}

static inline uint32_t mt_next(mt_reader *rd)
{
    if (rd->next == MT_N)
        mt_refill(rd);
    return rd->out[rd->next++];
}

static void mt_close(mt_reader *rd)
{
    rd->rng->index = rd->next;
}

/* random.Random(seed) for 0 <= seed < 2**64: CPython's random_seed keys
 * init_by_array with the seed's 32-bit words, least significant first. */
void mt_seed(mt_state *rng, uint64_t seed)
{
    uint32_t key[2] = {(uint32_t)seed, (uint32_t)(seed >> 32)};
    int key_length = seed >> 32 ? 2 : 1;
    uint32_t *mt = rng->mt;
    int i = 1, j = 0, k;
    mt[0] = 19650218U;
    for (k = 1; k < MT_N; k++)
        mt[k] = 1812433253U * (mt[k - 1] ^ (mt[k - 1] >> 30)) + (uint32_t)k;
    for (k = MT_N; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1664525U)) + key[j] + (uint32_t)j;
        if (++i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
        if (++j >= key_length)
            j = 0;
    }
    for (k = MT_N - 1; k; k--) {
        mt[i] = (mt[i] ^ ((mt[i - 1] ^ (mt[i - 1] >> 30)) * 1566083941U)) - (uint32_t)i;
        if (++i >= MT_N) {
            mt[0] = mt[MT_N - 1];
            i = 1;
        }
    }
    mt[0] = 0x80000000U;
    rng->index = MT_N;
}

/* random.Random._randbelow(n) for 0 < n < 2**31: getrandbits(k) with
 * k = n.bit_length() is the top k bits of one word, redrawn while >= n. */
static int randbelow(mt_reader *rd, int n)
{
    int shift = __builtin_clz((unsigned)n);
    uint32_t r;
    do
        r = mt_next(rd) >> shift;
    while (r >= (uint32_t)n);
    return (int)r;
}

/* random.Random.shuffle. */
static void shuffle(mt_reader *rd, int *x, int len)
{
    int i;
    for (i = len - 1; i > 0; i--) {
        int j = randbelow(rd, i + 1);
        int t = x[i];
        x[i] = x[j];
        x[j] = t;
    }
}

/* ---- the search ---- */

/* Open a frame on the Brelaz cell: smallest domain, then most open cells
 * sharing its lines, then a uniform draw among the remaining ties in hole
 * order.  The smallest non-empty size bucket lists the first ties in that
 * order, row by row.  Its values are listed ascending and shuffled. */
static void open_frame(fc_state *st, mt_reader *rd)
{
    int n = st->n;
    int ties[MAX_N * MAX_N];
    int count = 0, bestdeg = -1, k, r, cell;
    fc_frame *f = &st->frames[st->n_frames++];
    uint64_t m;
    for (k = 1; k <= n && count == 0; k++)
        for (r = 0; r < n; r++)
            for (m = st->size_rows[k * n + r]; m; m &= m - 1) {
                int col = __builtin_ctzll(m);
                int deg = st->line_unassigned[r] + st->line_unassigned[n + col];
                if (deg > bestdeg) {
                    bestdeg = deg;
                    count = 0;
                }
                if (deg == bestdeg)
                    ties[count++] = r * n + col;
            }
    cell = count > 1 ? ties[randbelow(rd, count)] : ties[0];
    f->cell = cell;
    f->next = 0;
    f->n_values = 0;
    for (m = st->domain[cell]; m; m &= m - 1)
        f->values[f->n_values++] = __builtin_ctzll(m) + 1;
    shuffle(rd, f->values, f->n_values);
}

/* Population variance of m line counts as _population_variance in
 * tests/reference.py computes it: an exact integer sum for the mean, then
 * (x - mean) ** 2 added left to right from 0.0.  Python's float ** 2 calls
 * libm pow, whose result can differ from x * x in the last bit; the
 * volatile exponent keeps the compiler from rewriting pow(d, 2.0) as
 * d * d. */
static double line_variance(const int *xs, int m)
{
    static volatile double two = 2.0;
    long long sum = 0;
    double mean, acc = 0.0;
    int i;
    for (i = 0; i < m; i++)
        sum += xs[i];
    mean = (double)sum / m;
    for (i = 0; i < m; i++)
        acc += pow((double)xs[i] - mean, two);
    return acc / m;
}

/* Add one traced row to the running statistics of its features; the first
 * row sets them.  Sums are taken left to right, as numpy's mean over the
 * rows axis of a C-ordered array adds them, and each difference is the
 * row's value minus the previous row's, as np.diff takes it. */
static void add_to_running(fc_state *st, const double *row)
{
    int j;
    for (j = 0; j < 14; j++) {
        fc_running *a = &st->running[j];
        double x = row[j], d;
        if (st->node_visits == 1) {
            a->first = a->last = a->sum = a->min = a->max = x;
            continue;
        }
        d = x - a->last;
        if (st->node_visits == 2) {
            a->d_sum = a->d_min = a->d_max = d;
        } else {
            a->d_sum += d;
            if (d < a->d_min)
                a->d_min = d;
            if (d > a->d_max)
                a->d_max = d;
            a->d_signchg += (d > 0 && a->d_last < 0) || (d < 0 && a->d_last > 0);
        }
        a->d_last = d;
        a->last = x;
        a->sum += x;
        if (x < a->min)
            a->min = x;
        if (x > a->max)
            a->max = x;
    }
}

/* Write features.summarize's values of the m >= 2 rows traced so far to
 * st->summary, feature-major in features.STAT_NAMES order: init, final,
 * avg, min, max, d_avg, d_min, d_max, d_signchg.  A mean is the sum divided
 * by its count, as numpy divides it. */
static void write_summary(fc_state *st)
{
    double m = (double)st->node_visits;
    int j;
    for (j = 0; j < 14; j++) {
        const fc_running *a = &st->running[j];
        double *out = st->summary + 9 * j;
        out[0] = a->first;
        out[1] = a->last;
        out[2] = a->sum / m;
        out[3] = a->min;
        out[4] = a->max;
        out[5] = a->d_sum / (m - 1);
        out[6] = a->d_min;
        out[7] = a->d_max;
        out[8] = (double)a->d_signchg;
    }
}

/* Compute the 14 floats of snapshot in tests/reference.py, in
 * features.REGISTRY order; the two must change together.  Every quotient
 * of two integers is taken in double, as Python's int / int rounds it.
 * The row goes to st->trace, if rows are kept, and into the running
 * statistics; with the last row due, the summary goes to st->summary, if
 * it is wanted and there are at least two rows.  Kept out of line: it runs
 * for the first rows of a run only, and inlined it doubled fc_run's code
 * and made traced desk runs about 2% slower per choice point. */
static __attribute__((noinline)) void trace_row(fc_state *st)
{
    int n = st->n, open = 0, min_dom = n + 1, k;
    long long total = 0;
    double row[14];
    for (k = 0; k < st->n_holes; k++) {
        int c = st->hole_cells[k];
        if (st->symbol[c] == 0) {
            int d = st->domain_size[c];
            open++;
            total += d;
            if (d < min_dom)
                min_dom = d;
        }
    }
    if (!open)
        min_dom = 0;
    row[0] = (double)st->backtracks;
    row[1] = (double)st->depth;
    row[2] = (double)st->max_depth;
    row[3] = (double)(st->min_leaf_depth < 0 ? st->depth : st->min_leaf_depth);
    row[4] = st->node_visits ? (double)st->node_depth_sum / (double)st->node_visits
                             : (double)st->depth;
    row[5] = open;
    row[6] = open ? (double)total / open : 0.0;
    row[7] = min_dom;
    row[8] = (double)total;
    row[9] = line_variance(st->line_unassigned, 2 * n);
    row[10] = (double)open / n;
    row[11] = (double)st->forced_assignments;
    row[12] = (double)st->alldiff_prunings;
    row[13] = (double)st->contradictions;
    if (st->trace) {
        memcpy(st->trace, row, sizeof row);
        st->trace += 14;
    }
    add_to_running(st, row);
    if (st->trace_left == 0 && st->summary && st->node_visits >= 2)
        write_summary(st);
}

/* Run the search of SearchState.search in tests/reference.py on a
 * root-propagated state with open cells.  Returns an FC_* code; after FC_PAUSED the next call
 * resumes the search.  Each of the first trace_left choice points traces its
 * feature row after counting the node and before branching.  A call pauses
 * once it has done `budget` units of work: one per choice point, and one per
 * open cell of each line it filters, which bounds its time at either level
 * and any order.  When rows are kept, it also pauses when a row is due and
 * the buffer is full, so that the caller can empty it and reset st->trace.  fc_run sets the
 * budget and draws from rng through a reader. */
static int run(fc_state *st, mt_reader *rd)
{
    for (;;) {
        fc_frame *f;
        int r, col;
        if (st->budget-- <= 0 || (st->trace_left > 0 && st->trace && st->trace == st->trace_end))
            return FC_PAUSED;
        if (st->new_node)
            open_frame(st, rd);
        if (st->cutoff >= 0 && st->choice_points >= st->cutoff)
            return FC_CUTOFF;
        st->choice_points++;
        st->depth = st->n_frames - 1;
        if (st->trace_left > 0) {
            st->trace_left--;
            st->node_visits++;
            st->node_depth_sum += st->depth;
            trace_row(st);
        }
        if (st->n_frames > st->max_depth)
            st->max_depth = st->n_frames;
        f = &st->frames[st->n_frames - 1];
        f->mark = st->trail_len;
        clear_dirty(st);
        r = f->cell / st->n;
        col = f->cell % st->n;
        assign(st, f->cell, r, col, f->values[f->next]);
        st->queue[0] = PLACE(r, col);
        if (propagate(st, 1)) {
            if (st->unassigned_count == 0)
                return FC_SOLVED;
            st->new_node = 1;
            continue;
        }
        st->contradictions++;
        if (st->min_leaf_depth < 0 || st->n_frames < st->min_leaf_depth)
            st->min_leaf_depth = st->n_frames;
        undo_to(st, f->mark);
        st->backtracks++;
        f->next++;
        while (f->next >= f->n_values) {
            if (--st->n_frames == 0)
                return FC_EXHAUSTED;
            f = &st->frames[st->n_frames - 1];
            undo_to(st, f->mark);
            st->backtracks++;
            f->next++;
        }
        st->new_node = 0;
    }
}

int fc_run(fc_state *st, mt_state *rng, long long budget)
{
    mt_reader rd;
    int status;
    st->budget = budget;
    mt_open(&rd, rng);
    status = run(st, &rd);
    mt_close(&rd);
    return status;
}

/* ---- instance generation ---- */

/* Consume the draws of randbelow(k), randbelow(k - 1), ..., randbelow(2),
 * the remaining steps of a shuffle whose outcome is already known: a word is
 * accepted when its top bits are below the bound, and each acceptance lowers
 * the bound by one, without a branch on the word. */
static void skip_shuffle_steps(mt_reader *rd, int k)
{
    while (k >= 2)
        k -= (mt_next(rd) >> __builtin_clz((unsigned)k)) < (uint32_t)k;
}

/* One pass of latin._balanced_holes for 1 <= h <= n-2: h random permutations,
 * each redrawn (up to `retries` times) until it avoids every cell already
 * taken (bit c of taken[r] for cell (r, c)).  Returns 1 when all h fit, 0
 * when a slot ran out of draws and the caller must start a new pattern.
 *
 * Each draw is random.Random.shuffle of 0..n-1, which finalizes position i at
 * its step i and position 0 at the last one.  A draw is rejected at the first
 * finalized position that is taken, and its remaining steps only consume
 * their words, so the stream and the pattern are those of the Python loop. */
int lq_hole_pattern(mt_state *rng, int n, int h, int retries, uint64_t *taken)
{
    int perm[MAX_N], identity[MAX_N];
    int slot, tries, r, fits = 1;
    mt_reader rd;
    mt_open(&rd, rng);
    for (r = 0; r < n; r++) {
        taken[r] = 0;
        identity[r] = r;
    }
    for (slot = 0; slot < h && fits; slot++) {
        for (tries = 0; tries < retries; tries++) {
            int i;
            memcpy(perm, identity, sizeof(int) * n);
            for (i = n - 1; i > 0; i--) {
                int j = randbelow(&rd, i + 1), t = perm[i];
                perm[i] = perm[j];
                perm[j] = t;
                if (taken[i] >> perm[i] & 1)
                    break;
            }
            if (i > 0)
                skip_shuffle_steps(&rd, i);
            else if (!(taken[0] >> perm[0] & 1))
                break;
        }
        if (tries == retries)
            fits = 0;
        else
            for (r = 0; r < n; r++)
                taken[r] |= (uint64_t)1 << perm[r];
    }
    mt_close(&rd);
    return fits;
}

/* Advance the fill by at most `steps` placements or retreats.  A newly
 * reached cell lists its legal symbols in ascending order and shuffles
 * them.  Returns 1 when the square is complete, 0 when the steps ran out
 * (call again), -1 when the search retreated past the first cell.  lq_fill
 * draws from rng through a reader. */
static int fill(mt_reader *rd, lq_square *sq, long long steps)
{
    int n = sq->n, size = n * n;
    uint64_t full = n == 64 ? ~(uint64_t)0 : ((uint64_t)1 << n) - 1;
    while (sq->filled < size) {
        int i = sq->filled, r = i / n, c = i % n;
        int *cs = sq->cands + (long)i * n;
        uint64_t bit;
        if (steps-- <= 0)
            return 0;
        if (sq->drawn == i) {
            uint64_t avail = full & ~(sq->row_used[r] | sq->col_used[c]);
            int k = 0;
            for (; avail; avail &= avail - 1)
                cs[k++] = __builtin_ctzll(avail) + 1;
            shuffle(rd, cs, k);
            sq->n_cands[i] = k;
            sq->drawn++;
        }
        if (sq->n_cands[i] > 0) {
            int s = cs[--sq->n_cands[i]];
            bit = (uint64_t)1 << (s - 1);
            sq->flat[i] = s;
            sq->row_used[r] |= bit;
            sq->col_used[c] |= bit;
            sq->filled++;
        } else {
            sq->drawn--;
            if (--sq->filled < 0)
                return -1;
            i = sq->filled;
            bit = (uint64_t)1 << (sq->flat[i] - 1);
            sq->row_used[i / n] &= ~bit;
            sq->col_used[i % n] &= ~bit;
        }
    }
    return 1;
}

int lq_fill(mt_state *rng, lq_square *sq, long long steps)
{
    mt_reader rd;
    int done;
    mt_open(&rd, rng);
    done = fill(&rd, sq, steps);
    mt_close(&rd);
    return done;
}

/* ---- numpy's PCG64 stream ---- */

typedef unsigned __int128 u128;

#define PCG_MULT (((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* A pcg64_state while an entry point draws from it, its LCG state and
 * increment as 128-bit numbers; pcg_close writes it back. */
typedef struct {
    pcg64_state *rng;
    u128 s;
    u128 inc;
    int has_uint32;
    uint32_t uinteger;
} pcg_reader;

static void pcg_open(pcg_reader *rd, pcg64_state *rng)
{
    rd->rng = rng;
    rd->s = ((u128)rng->state_hi << 64) | rng->state_lo;
    rd->inc = ((u128)rng->inc_hi << 64) | rng->inc_lo;
    rd->has_uint32 = rng->has_uint32;
    rd->uinteger = rng->uinteger;
}

static void pcg_close(pcg_reader *rd)
{
    rd->rng->state_hi = (uint64_t)(rd->s >> 64);
    rd->rng->state_lo = (uint64_t)rd->s;
    rd->rng->has_uint32 = rd->has_uint32;
    rd->rng->uinteger = rd->uinteger;
}

/* The XSL-RR output of an LCG state. */
static uint64_t pcg_output(u128 s)
{
    uint64_t x = (uint64_t)(s >> 64) ^ (uint64_t)s;
    unsigned rot = (unsigned)(s >> 122);
    return (x >> rot) | (x << ((-rot) & 63));
}

/* numpy's pcg64_next64: step the LCG, then output its state. */
static inline uint64_t pcg_next64(pcg_reader *rd)
{
    rd->s = rd->s * PCG_MULT + rd->inc;
    return pcg_output(rd->s);
}

/* numpy's pcg64_next32: the buffered high half-word if there is one, else
 * the low half of a new output, buffering its high half. */
static inline uint32_t pcg_next32(pcg_reader *rd)
{
    uint64_t x;
    if (rd->has_uint32) {
        rd->has_uint32 = 0;
        return rd->uinteger;
    }
    x = pcg_next64(rd);
    rd->has_uint32 = 1;
    rd->uinteger = (uint32_t)(x >> 32);
    return (uint32_t)x;
}

/* One draw of Generator.integers(0, high) for 1 <= high < 2**32, as
 * numpy's random_bounded_uint64_fill makes it: none for a single value, else
 * Lemire's method on 32-bit words, taking the high half of word * high for
 * the first word whose low half is at least threshold = (2**32 - high) %
 * high. */
static inline uint32_t pcg_bounded(pcg_reader *rd, uint32_t high, uint32_t threshold)
{
    uint64_t m;
    if (high == 1)
        return 0;
    do
        m = (uint64_t)pcg_next32(rd) * high;
    while ((uint32_t)m < threshold);
    return (uint32_t)(m >> 32);
}

/* Generator.random(): the top 53 bits of a 64-bit output. */
static inline double pcg_double(pcg_reader *rd)
{
    return (double)(pcg_next64(rd) >> 11) * (1.0 / 9007199254740992.0);
}

/* Step rd's LCG delta times in O(log delta) multiplications: Brown's jump
 * ("Random Number Generation with Arbitrary Strides", 1994), as numpy's
 * PCG64.advance makes it.  The step s -> m*s + c, applied 2**j times, is
 * s -> m_j*s + c_j with m_{j+1} = m_j**2 and c_{j+1} = (m_j + 1)*c_j. */
static void pcg_advance(pcg_reader *rd, unsigned long long delta)
{
    u128 mult = PCG_MULT, plus = rd->inc, acc_mult = 1, acc_plus = 0;
    for (; delta; delta >>= 1) {
        if (delta & 1) {
            acc_mult *= mult;
            acc_plus = acc_plus * mult + plus;
        }
        plus *= mult + 1;
        mult *= mult;
    }
    rd->s = rd->s * acc_mult + acc_plus;
}

/* Advance rd past count draws of pcg_bounded without making them.  When
 * threshold is 0 (high a power of two, among others) no word is rejected,
 * so the draws are the next count half-words, and the LCG jumps to the last
 * output they need.  Otherwise each word's acceptance is all that is tested,
 * on two LCG chains, the even and the odd steps, stepped together. */
static void pcg_skip_bounded(pcg_reader *rd, uint32_t high, uint32_t threshold,
                             long long count)
{
    u128 inc = rd->inc;
    u128 mult2 = PCG_MULT * PCG_MULT, inc2 = PCG_MULT * inc + inc;
    u128 a = rd->s * PCG_MULT + inc, b = a * PCG_MULT + inc;
    if (count <= 0 || high < 2) /* numpy draws nothing for a single value */
        return;
    if (rd->has_uint32) {
        rd->has_uint32 = 0;
        if ((uint32_t)((uint64_t)rd->uinteger * high) >= threshold && --count == 0)
            return;
    }
    if (threshold == 0) {
        pcg_advance(rd, (unsigned long long)(count - 1) / 2);
        rd->uinteger = (uint32_t)(pcg_next64(rd) >> 32);
        rd->has_uint32 = count & 1;
        return;
    }
    for (;;) {
        uint64_t x = pcg_output(a);
        if ((uint32_t)((x & 0xffffffffU) * high) >= threshold && --count == 0) {
            rd->s = a;
            rd->has_uint32 = 1;
            rd->uinteger = (uint32_t)(x >> 32);
            return;
        }
        if ((uint32_t)((x >> 32) * high) >= threshold && --count == 0) {
            rd->s = a;
            rd->uinteger = (uint32_t)(x >> 32);
            return;
        }
        x = pcg_output(b);
        if ((uint32_t)((x & 0xffffffffU) * high) >= threshold && --count == 0) {
            rd->s = b;
            rd->has_uint32 = 1;
            rd->uinteger = (uint32_t)(x >> 32);
            return;
        }
        if ((uint32_t)((x >> 32) * high) >= threshold && --count == 0) {
            rd->s = b;
            rd->uinteger = (uint32_t)(x >> 32);
            return;
        }
        a = a * mult2 + inc2;
        b = b * mult2 + inc2;
    }
}

/* ---- policy.simulate_policy's rounds ---- */

/* luby_term of tests/reference.py for 1 <= i < 2**63. */
static long long luby_term(unsigned long long i)
{
    for (;;) {
        int k = 64 - __builtin_clzll(i);
        if (i == (1ULL << k) - 1)
            return (long long)(1ULL << (k - 1));
        i -= (1ULL << (k - 1)) - 1;
    }
}

/* How a round's runs are called SHORT: never (cutoff policies), by the row
 * (short_rows) or by the synthetic predictor. */
#define CALL_NEVER 0
#define CALL_ROWS 1
#define CALL_SYNTHETIC 2

/* Price one round of st's active trials at cutoff cut, drawing from rd;
 * `calls` is a constant, so each caller gets its own loop.  Whether a run
 * wins is a coin toss, so the loop does not branch on it: a run goes on to
 * lim, the limit when it is called SHORT and cut otherwise (cut < limit),
 * and wins when t <= lim at cost min(t, lim); a loser adds 0 of the shared
 * cost and stays in active, and its round is rewritten when it wins. */
static inline __attribute__((always_inline)) void
price_round(rounds_state *st, pcg_reader *rd, uint32_t high, uint32_t threshold,
            long long cut, long long round, int calls)
{
    const long long *lengths = st->lengths;
    const uint8_t *short_rows = st->short_rows;
    long long *active = st->active;
    uint32_t *drawn = st->drawn;
    double *total_cost = st->total_cost;
    long long *total_runs = st->total_runs;
    double limit = st->limit, accuracy = st->accuracy;
    double lims[2] = {(double)cut, limit}, shared[2] = {0.0, (double)st->shared};
    long long i, n = st->n_active, kept = 0;
    pcg_reader r = *rd;
    if (calls == CALL_SYNTHETIC)
        for (i = 0; i < n; i++)
            drawn[i] = pcg_bounded(&r, high, threshold);
    for (i = 0; i < n; i++) {
        long long trial = active[i];
        uint32_t row = calls == CALL_SYNTHETIC ? drawn[i] : pcg_bounded(&r, high, threshold);
        double t = (double)lengths[row];
        int call = calls == CALL_SYNTHETIC ? (t <= limit) ^ (pcg_double(&r) >= accuracy)
                   : calls == CALL_ROWS ? short_rows[row] : 0;
        double lim = lims[call];
        int win = t <= lim;
        total_cost[trial] = total_cost[trial] + (t < lim ? t : lim) + shared[win];
        total_runs[trial] = round;
        active[kept] = trial;
        kept += !win;
    }
    *rd = r;
    st->n_active = kept;
}

/* Price st's rounds until every trial has won, a round past run_budget would
 * begin (the trials left stay in active) or about `draws` draws are made;
 * returns 1 in the last case (call again), else 0.
 *
 * A round draws a row for each active trial, in order, as
 * Generator.integers(0, rows, size=n_active) does, and for the synthetic
 * predictor then a double for each, as Generator.random(n_active) does.  A
 * run of length t <= cut, the round's cutoff, wins at cost t; else a run
 * called SHORT costs min(t, limit) and wins when t <= limit, and any other
 * run costs cut.  Each trial adds its cost, and when its run wins the shared
 * cost of the dead rounds so far; the losers stay in active, in order.
 *
 * A cutoff policy's round whose cutoff is below the shortest run is dead: it
 * kills every run at its cutoff, which is added to shared, and its draws are
 * skipped rather than made (pending).  Costs are whole numbers, added in the
 * order numpy adds them, so every total is bit-identical. */
int pcg64_price_rounds(rounds_state *st, pcg64_state *rng, long long draws)
{
    pcg_reader rd;
    uint32_t high = st->rows;
    uint32_t threshold = (UINT32_MAX - (high - 1)) % high;
    int calls = st->synthetic ? CALL_SYNTHETIC : st->short_rows ? CALL_ROWS : CALL_NEVER;
    int more = 1;
    pcg_open(&rd, rng);
    for (;;) {
        long long n = st->n_active, round, cut = st->cutoff;
        if (st->pending) {
            long long k = st->pending < draws ? st->pending : draws;
            pcg_skip_bounded(&rd, high, threshold, k);
            st->pending -= k;
            if ((draws -= k) <= 0)
                break;
        }
        if (n == 0 || st->round_no >= st->run_budget) {
            more = 0;
            break;
        }
        round = ++st->round_no;
        if (st->luby && __builtin_mul_overflow(cut, luby_term(round), &cut))
            cut = INT64_MAX;
        if (calls == CALL_NEVER && cut < st->shortest) {
            st->shared += cut;
            if (high > 1) {
                st->pending += n;
                st->dead_draws += n;
            }
            continue;
        }
        if (calls == CALL_SYNTHETIC)
            price_round(st, &rd, high, threshold, cut, round, CALL_SYNTHETIC);
        else if (calls == CALL_ROWS)
            price_round(st, &rd, high, threshold, cut, round, CALL_ROWS);
        else
            price_round(st, &rd, high, threshold, cut, round, CALL_NEVER);
        if (high > 1)
            st->live_draws += n;
        if ((draws -= calls == CALL_SYNTHETIC ? 2 * n : n) <= 0)
            break;
    }
    pcg_close(&rd);
    return more;
}

/* ---- numpy's PCG64 seeding and Generator.permutation ---- */

/* numpy SeedSequence's hash step: x mixed with the hash constant, which
 * then advances by mult. */
static uint32_t seed_hash(uint32_t x, uint32_t *hash, uint32_t mult)
{
    x ^= *hash;
    *hash *= mult;
    x *= *hash;
    return x ^ (x >> 16);
}

/* numpy SeedSequence's mix of a pool word x with a hashed word y. */
static uint32_t seed_mix(uint32_t x, uint32_t y)
{
    uint32_t r = 0xca01f9ddU * x - 0x4973f715U * y;
    return r ^ (r >> 16);
}

/* np.random.PCG64(seed) for an int seed >= 0, given as its n_words >= 1
 * 32-bit words, least significant first (a seed below 2**32 is one word).
 * SeedSequence(seed) hashes the words into a pool of four and mixes every
 * pool word into every other, then the words past the fourth into each;
 * generate_state(4, uint64) hashes the pool out to eight words, read as
 * four little-endian 64-bit words: the high and low halves of the initial
 * state, then of the stream; and PCG64's set_seed makes the increment
 * stream*2 + 1 and steps the LCG before and after adding the initial
 * state.  This is O'Neill's seed_seq mix for PCG ("PCG: A Family of Simple
 * Fast Space-Efficient Statistically Good Algorithms for Random Number
 * Generation", 2014).  No half-word is buffered.  Like the next entry point
 * it is hidden from the dynamic symbol table, so the two leave the address
 * of every function before them as it was without them. */
__attribute__((visibility("hidden")))
void pcg64_seed(pcg64_state *rng, const uint32_t *words, int n_words)
{
    uint32_t pool[4], out[8], hash = 0x43b0d7e5U;
    uint64_t half[4];
    u128 init, inc;
    int i, j;
    for (i = 0; i < 4; i++)
        pool[i] = seed_hash(i < n_words ? words[i] : 0, &hash, 0x931e8875U);
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            if (i != j)
                pool[j] = seed_mix(pool[j], seed_hash(pool[i], &hash, 0x931e8875U));
    for (i = 4; i < n_words; i++)
        for (j = 0; j < 4; j++)
            pool[j] = seed_mix(pool[j], seed_hash(words[i], &hash, 0x931e8875U));
    hash = 0x8b51f9ddU;
    for (i = 0; i < 8; i++)
        out[i] = seed_hash(pool[i & 3], &hash, 0x58f38dedU);
    for (i = 0; i < 4; i++)
        half[i] = (uint64_t)out[2 * i + 1] << 32 | out[2 * i];
    init = (u128)half[0] << 64 | half[1];
    inc = ((u128)half[2] << 64 | half[3]) << 1 | 1;
    init = (inc + init) * PCG_MULT + inc;
    rng->state_hi = (uint64_t)(init >> 64);
    rng->state_lo = (uint64_t)init;
    rng->inc_hi = (uint64_t)(inc >> 64);
    rng->inc_lo = (uint64_t)inc;
    rng->has_uint32 = 0;
    rng->uinteger = 0;
}

/* Generator.permutation(n) for 0 <= n <= 2**32: perm gets 0..n-1, shuffled
 * as Generator.shuffle shuffles it, by a Fisher-Yates pass from the end.
 * Position i swaps with j, numpy's random_interval(i): the next 32-bit
 * half-word masked to the bits of i, drawn again while it exceeds i. */
__attribute__((visibility("hidden")))
void pcg64_permutation(pcg64_state *rng, long long *perm, long long n)
{
    pcg_reader rd;
    long long i;
    for (i = 0; i < n; i++)
        perm[i] = i;
    pcg_open(&rd, rng);
    for (i = n - 1; i > 0; i--) {
        uint32_t mask = ~0U >> __builtin_clz((uint32_t)i), j;
        long long t;
        do
            j = pcg_next32(&rd) & mask;
        while (j > (uint32_t)i);
        t = perm[i];
        perm[i] = perm[j];
        perm[j] = t;
    }
    pcg_close(&rd);
}

/* regin_prunings on one line, for regin_filter in tests/reference.py: k <= 64
 * cells, values 0..63.  flatten inlines the filter into this function, so
 * filter_line stays its only other caller and still inlines it.  Defined last
 * and hidden from the dynamic symbol table (cffi's wrapper, in this module,
 * calls it directly), it leaves the machine code and the address of every
 * other function as they were without it; the search's speed moves with the
 * placement of its code. */
__attribute__((flatten, visibility("hidden")))
int fc_regin_filter(const uint64_t *doms, int k, uint64_t *prune)
{
    return regin_prunings(doms, k, prune);
}
