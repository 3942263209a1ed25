/* C kernels for orders up to 64: the forward-checking core of the completion
 * search, and the two seeded instance generators of latin.py.
 *
 * One fc_state holds a run's mutable constraint state: bitmask domains (bit
 * s-1 set means symbol s is still possible), assigned symbols (0 = open),
 * open-cell counts per line (rows 0..n-1, then columns), the trail and the
 * propagation queue.  Every buffer is owned by the caller.  The step order
 * (peer order, FIFO queue, trail layout) mirrors the Python SearchState in
 * solver.py exactly, so both give identical counters and trajectories.
 *
 * The generators draw from an mt_state, a copy of a random.Random's
 * Mersenne Twister state, through the same genrand_uint32, _randbelow and
 * shuffle steps as CPython, so they consume exactly the stream the Python
 * code in latin.py would and return the same squares and hole patterns.
 */

#include <stdint.h>

typedef struct {
    int n;
    int n_holes;
    int unassigned_count;
    int trail_len;
    long long forced_assignments;
    uint64_t *domain;
    int *symbol;
    int *line_unassigned;
    const int *hole_cells;
    int *trail_cell;      /* pruned cell, or ~cell for an assignment */
    uint64_t *trail_bits; /* pruned bit, or the domain before the assignment */
    int *queue;
} fc_state;

static void assign(fc_state *st, int c, int s)
{
    int n = st->n;
    int t = st->trail_len++;
    st->trail_cell[t] = ~c;
    st->trail_bits[t] = st->domain[c];
    st->domain[c] = (uint64_t)1 << (s - 1);
    st->symbol[c] = s;
    st->unassigned_count--;
    st->line_unassigned[c / n]--;
    st->line_unassigned[n + c % n]--;
}

/* Remove symbol s (bit) from open peer p; 0 on contradiction. */
static int prune(fc_state *st, int p, int s, uint64_t bit, int *tail)
{
    int ps = st->symbol[p];
    uint64_t d;
    int t;
    if (ps == s)
        return 0;
    if (ps != 0)
        return 1;
    d = st->domain[p];
    if (!(d & bit))
        return 1;
    d ^= bit;
    st->domain[p] = d;
    t = st->trail_len++;
    st->trail_cell[t] = p;
    st->trail_bits[t] = bit;
    if (d == 0)
        return 0;
    if ((d & (d - 1)) == 0) {
        assign(st, p, __builtin_ctzll(d) + 1);
        st->forced_assignments++;
        st->queue[(*tail)++] = p;
    }
    return 1;
}

/* Forward-check the queued assignments to a fixpoint; 0 on contradiction. */
static int propagate(fc_state *st, int tail)
{
    int n = st->n;
    int head = 0;
    while (head < tail) {
        int c = st->queue[head++];
        int s = st->symbol[c];
        uint64_t bit = (uint64_t)1 << (s - 1);
        int r = c / n, col = c % n, i;
        for (i = 0; i < n; i++)
            if (i != col && !prune(st, r * n + i, s, bit, &tail))
                return 0;
        for (i = 0; i < n; i++)
            if (i != r && !prune(st, i * n + col, s, bit, &tail))
                return 0;
    }
    return 1;
}

int fc_propagate_root(fc_state *st)
{
    int tail = 0, k;
    for (k = 0; k < st->n_holes; k++) {
        int c = st->hole_cells[k];
        uint64_t d;
        if (st->symbol[c] != 0)
            continue;
        d = st->domain[c];
        if (d == 0)
            return 0;
        if ((d & (d - 1)) == 0) {
            assign(st, c, __builtin_ctzll(d) + 1);
            st->forced_assignments++;
            st->queue[tail++] = c;
        }
    }
    return propagate(st, tail);
}

int fc_branch(fc_state *st, int cell, int value)
{
    assign(st, cell, value);
    st->queue[0] = cell;
    return propagate(st, 1);
}

void fc_undo_to(fc_state *st, int mark)
{
    int n = st->n;
    while (st->trail_len > mark) {
        int t = --st->trail_len;
        int c = st->trail_cell[t];
        if (c >= 0) {
            st->domain[c] |= st->trail_bits[t];
        } else {
            c = ~c;
            st->symbol[c] = 0;
            st->domain[c] = st->trail_bits[t];
            st->unassigned_count++;
            st->line_unassigned[c / n]++;
            st->line_unassigned[n + c % n]++;
        }
    }
}

/* Brelaz scan: writes the open cells of smallest domain, narrowed to those
 * sharing a line with the most open cells, into ties in hole order; returns
 * their count (0 when no cell is open). */
int fc_select(fc_state *st, int *ties)
{
    int n = st->n;
    int best = n + 2, count = 0, bestdeg = -1, kept = 0, k;
    for (k = 0; k < st->n_holes; k++) {
        int c = st->hole_cells[k];
        int d;
        if (st->symbol[c] != 0)
            continue;
        d = __builtin_popcountll(st->domain[c]);
        if (d < best) {
            best = d;
            count = 0;
        }
        if (d == best)
            ties[count++] = c;
    }
    if (count <= 1)
        return count;
    for (k = 0; k < count; k++) {
        int c = ties[k];
        int deg = st->line_unassigned[c / n] + st->line_unassigned[n + c % n] - 2;
        if (deg > bestdeg) {
            bestdeg = deg;
            kept = 0;
        }
        if (deg == bestdeg)
            ties[kept++] = c;
    }
    return kept;
}

/* ---- instance generation on CPython's Mersenne Twister stream ---- */

#define MT_N 624
#define MT_M 397

typedef struct {
    uint32_t mt[MT_N];
    int index; /* next word of mt to temper; MT_N means regenerate first */
} mt_state;

/* genrand_uint32 of CPython's Modules/_randommodule.c. */
static uint32_t genrand_uint32(mt_state *rng)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t *mt = rng->mt;
    uint32_t y;
    if (rng->index >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        rng->index = 0;
    }
    y = mt[rng->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* random.Random._randbelow(n) for 0 < n <= 64: getrandbits(k) with
 * k = n.bit_length() is the top k bits of one word, redrawn while >= n. */
static int randbelow(mt_state *rng, int n)
{
    int shift = __builtin_clz((unsigned)n);
    uint32_t r;
    do
        r = genrand_uint32(rng) >> shift;
    while (r >= (uint32_t)n);
    return (int)r;
}

/* random.Random.shuffle. */
static void shuffle(mt_state *rng, int *x, int len)
{
    int i;
    for (i = len - 1; i > 0; i--) {
        int j = randbelow(rng, i + 1);
        int t = x[i];
        x[i] = x[j];
        x[j] = t;
    }
}

/* One pass of latin._balanced_holes for 1 <= h <= n-2: h random permutations,
 * each redrawn (up to `retries` times) until it avoids every cell already
 * taken (bit c of taken[r] for cell (r, c)).  Returns 1 when all h fit, 0
 * when a slot ran out of draws and the caller must start a new pattern. */
int lq_hole_pattern(mt_state *rng, int n, int h, int retries, uint64_t *taken)
{
    int perm[64];
    int slot, tries, r;
    for (r = 0; r < n; r++)
        taken[r] = 0;
    for (slot = 0; slot < h; slot++) {
        for (tries = 0; tries < retries; tries++) {
            for (r = 0; r < n; r++)
                perm[r] = r;
            shuffle(rng, perm, n);
            for (r = 0; r < n && !(taken[r] >> perm[r] & 1); r++)
                ;
            if (r == n)
                break;
        }
        if (tries == retries)
            return 0;
        for (r = 0; r < n; r++)
            taken[r] |= (uint64_t)1 << perm[r];
    }
    return 1;
}

/* latin.generate_complete's backtracking fill, kept in caller buffers so a
 * long search can return to Python between calls. */
typedef struct {
    int n;
    int filled;         /* cells 0..filled-1 hold their symbols */
    int drawn;          /* cells whose candidates are drawn: filled or filled+1 */
    int *flat;          /* symbol per cell, row-major */
    int *cands;         /* n slots per cell: its shuffled candidates */
    int *n_cands;       /* candidates per cell not yet tried (taken from the end) */
    uint64_t *row_used; /* bit s-1: symbol s is placed in the row */
    uint64_t *col_used;
} lq_square;

/* Advance the fill by at most `steps` placements or retreats.  A newly
 * reached cell lists its legal symbols in ascending order and shuffles
 * them.  Returns 1 when the square is complete, 0 when the steps ran out
 * (call again), -1 when the search retreated past the first cell. */
int lq_fill(mt_state *rng, lq_square *sq, long long steps)
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
            shuffle(rng, cs, k);
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
