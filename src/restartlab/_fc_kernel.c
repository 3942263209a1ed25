/* Forward-checking core of the completion search, for orders up to 64.
 *
 * One fc_state holds a run's mutable constraint state: bitmask domains (bit
 * s-1 set means symbol s is still possible), assigned symbols (0 = open),
 * open-cell counts per line (rows 0..n-1, then columns), the trail and the
 * propagation queue.  Every buffer is owned by the caller.  The step order
 * (peer order, FIFO queue, trail layout) mirrors the Python SearchState in
 * solver.py exactly, so both give identical counters and trajectories.
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
