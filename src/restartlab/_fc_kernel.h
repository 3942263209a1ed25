/* The interface of the C kernel (_fc_kernel.c): its constants, the state
 * structs its callers allocate, and its ten entry points.  _fc_kernel.c
 * includes this file, and fc_kernel.py hands it to cffi as the declarations
 * Python sees, so it is the one place they are written.  It holds only what
 * cffi's declaration parser reads: no #include (uint8_t to uint64_t come
 * from <stdint.h>, included first by _fc_kernel.c), no include guard and
 * #define only for integer constants. */

#define MAX_N 64 /* domains and line masks are 64-bit masks */
#define MT_N 624 /* words of Mersenne Twister state */

/* fc_run results */
#define FC_PAUSED 0    /* the step budget ran out: call again */
#define FC_SOLVED 1
#define FC_CUTOFF 2    /* the choice-point cutoff was reached */
#define FC_EXHAUSTED 3 /* the whole search space was explored */

/* ---- the search ---- */

typedef struct {
    int cell;
    int n_values;
    int next; /* index of the value being tried */
    int mark; /* trail length before the branch */
    int values[MAX_N];
} fc_frame;

/* Running statistics of one feature over the traced rows: the values
 * features.summarize derives from them. */
typedef struct {
    double first, last, sum, min, max; /* of the rows */
    double d_last, d_sum, d_min, d_max; /* of their first differences */
    long long d_signchg;                /* strict sign alternations of those */
} fc_running;

typedef struct {
    int n;
    int n_holes;
    int regin; /* alldiff (Regin) filtering after forward checking */
    int unassigned_count;
    int trail_len;
    const int *givens;    /* the instance, row-major, 0 for a hole; fc_init
                             copies it into symbol */
    uint64_t *domain;
    int *symbol;
    int *line_unassigned;
    int *hole_cells;      /* open cells of the instance, row-major */
    /* Two views of the domains, kept exact by every change and its undo.
     * Lines are rows 0..n-1, then columns; cell i of a row is in column i,
     * cell i of a column in row i. */
    uint64_t *line_symbol; /* n symbols x 2n lines: bit i of
                              [(s - 1) * 2n + line] when the line's cell i
                              has s in its domain, assigned cells included */
    uint64_t *size_rows;   /* n + 1 sizes x n rows: bit c of [k * n + r]
                              when cell (r, c) is open with k values */
    int *domain_size;      /* values per cell; an assigned cell keeps the
                              count it had when it was assigned */
    int *trail_cell;      /* pruned cell as row << 6 | column, or ~ that for
                             an assignment */
    uint64_t *trail_bits; /* pruned bit, or the domain before the assignment */
    int *queue;           /* assigned cells to forward-check, n_holes slots,
                             as row << 6 | column */
    int *dirty;           /* ring of lines to filter, 2n slots */
    int *dirty_flag;      /* line is in the ring */
    int dirty_head;
    int dirty_len;
    fc_frame *frames;     /* n_holes slots */
    int n_frames;
    int new_node;         /* the next choice point opens a frame */
    double *trace;        /* where the next traced feature row goes, or NULL
                             to keep no rows */
    double *trace_end;    /* end of the row buffer */
    double *summary;      /* NULL, or where the 126 summary values go once
                             the last row due is traced */
    long long cutoff;     /* choice points allowed, -1 for no limit */
    long long trace_left; /* leading choice points still to trace */
    long long budget;     /* work left in this fc_run call */
    long long choice_points;
    /* counters of RunRecord.stats and the traced feature rows */
    long long backtracks;
    long long contradictions;
    long long forced_assignments;
    long long alldiff_prunings;
    long long depth;
    long long max_depth;
    long long min_leaf_depth; /* -1 before the first dead end */
    long long node_visits;    /* rows traced so far */
    long long node_depth_sum;
    fc_running running[14];   /* per feature, in features.REGISTRY order */
} fc_state;

/* ---- CPython's Mersenne Twister stream ---- */

typedef struct {
    uint32_t mt[MT_N];
    int index; /* next word of mt to temper; MT_N means regenerate first */
} mt_state;

/* ---- instance generation ---- */

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

/* ---- numpy's PCG64 stream ---- */

/* A PCG64 bit generator's state dict: the 128-bit LCG state and increment,
 * and the high half-word of the last output while it waits to be drawn. */
typedef struct {
    uint64_t state_hi;
    uint64_t state_lo;
    uint64_t inc_hi;
    uint64_t inc_lo;
    int has_uint32;
    uint32_t uinteger;
} pcg64_state;

/* ---- policy.simulate_policy's trials ---- */

/* Every trial of a policy simulation, priced a round at a time.  A trial runs
 * one run per round until a run wins; a run is cut at `cutoff` (times the
 * round's Luby term when luby is set) unless the policy calls it SHORT, when
 * it goes on to `limit`.  Cutoff policies call nothing SHORT; the dynamic
 * policy's predictor is synthetic (the truth t <= limit, flipped when a
 * uniform draw is at least accuracy) or the SHORT call of each row
 * (short_rows).  Every buffer is owned by the caller. */
typedef struct {
    const long long *lengths; /* run length of each row */
    uint32_t rows;            /* 1 <= rows < 2**32 */
    long long shortest;       /* the shortest length */
    long long cutoff;         /* fixed cutoff, Luby scale or observation point */
    int luby;
    double limit;             /* may be inf */
    int synthetic;
    double accuracy;
    const uint8_t *short_rows; /* NULL unless the predictor is a model */
    long long *active;        /* the unfinished trials, in order */
    long long n_active;
    uint32_t *drawn;          /* synthetic: n_active slots for the round's rows */
    double *total_cost;       /* per trial: the steps it spent */
    long long *total_runs;    /* per trial: the round its run won (while it
                                 runs, the last round priced) */
    long long round_no;       /* rounds begun */
    long long run_budget;     /* rounds allowed */
    long long shared;         /* the cutoffs of the dead rounds so far */
    long long pending;        /* draws of dead rounds not yet skipped */
    long long live_draws;     /* rows drawn in priced rounds */
    long long dead_draws;     /* rows skipped for dead rounds */
} rounds_state;

/* ---- entry points, each described at its definition ---- */

void mt_seed(mt_state *rng, uint64_t seed);
int fc_init(fc_state *st);
int fc_propagate_root(fc_state *st);
int fc_run(fc_state *st, mt_state *rng, long long budget);
int fc_regin_filter(const uint64_t *doms, int k, uint64_t *prune);
int lq_hole_pattern(mt_state *rng, int n, int h, int retries, uint64_t *taken);
int lq_fill(mt_state *rng, lq_square *sq, long long steps);
int pcg64_price_rounds(rounds_state *st, pcg64_state *rng, long long draws);
void pcg64_seed(pcg64_state *rng, const uint32_t *words, int n_words);
void pcg64_permutation(pcg64_state *rng, long long *perm, long long n);
