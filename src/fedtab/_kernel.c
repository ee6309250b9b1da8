/* fedtab's compiled kernels: one epoch of the linear SVM (models.train_svm)
 * step for step, one forest tree grown as models._grow_tree grows it, each
 * node split where models._best_split splits it, and the leaves one tree
 * routes rows to, as models._leaf_index finds them.
 *
 * Built by fedtab.kernel with -ffp-contract=off, so every + and * rounds
 * once, as in Python and numpy.  The SVM dots go through the BLAS routines
 * numpy's weights.dot(x) calls, passed in as function pointers: 64-bit-integer
 * cblas_ddot for one weight row, row-major no-transpose cblas_dgemv for more.
 */
#include <stdint.h>
#include <string.h>

typedef double (*ddot_fn)(int64_t n, const double *x, int64_t incx,
                          const double *y, int64_t incy);
typedef void (*dgemv_fn)(int order, int trans, int64_t m, int64_t n, double alpha,
                         const double *a, int64_t lda, const double *x, int64_t incx,
                         double beta, double *y, int64_t incy);

enum { CBLAS_ROW_MAJOR = 101, CBLAS_NO_TRANS = 111 };

/* dots = w . x for a (rows, d) w, as numpy computes it */
void fedtab_svm_dots(int64_t rows, int64_t d, const double *w, const double *x,
                     double *dots, ddot_fn ddot, dgemv_fn dgemv)
{
    if (d == 1) { /* numpy scales by the one-element operand: the same products */
        for (int64_t r = 0; r < rows; r++)
            dots[r] = w[r] * x[0];
    } else if (rows == 1) {
        double sum = 0.0; /* numpy's dot accumulates the BLAS result into 0.0 */
        sum += ddot(d, w, 1, x, 1);
        dots[0] = sum;
    } else {
        dgemv(CBLAS_ROW_MAJOR, CBLAS_NO_TRANS, rows, d, 1.0, w, d, x, 1, 0.0, dots, 1);
    }
}

/* The steps of one epoch over the samples in `order`; updates w and bias in place. */
void fedtab_svm_epoch(int64_t n_steps, int64_t rows, int64_t d, const int64_t *order,
                      const double *X, const double *targets, double lr, double decay,
                      double *w, double *bias, double *dots, double *step,
                      ddot_fn ddot, dgemv_fn dgemv)
{
    double scale = 1.0;
    for (int64_t k = 0; k < n_steps; k++) {
        const double *x = X + order[k] * d;
        const double *t = targets + order[k] * rows;
        double s = scale;
        int formed = 0;
        fedtab_svm_dots(rows, d, w, x, dots, ddot, dgemv);
        scale *= decay;
        for (int64_t r = 0; r < rows; r++) {
            if (t[r] * (s * dots[r] + bias[r]) < 1.0) {
                double *wr = w + r * d;
                if (!formed) {
                    double a = lr / scale;
                    for (int64_t j = 0; j < d; j++)
                        step[j] = a * x[j];
                    formed = 1;
                }
                if (t[r] > 0.0)
                    for (int64_t j = 0; j < d; j++)
                        wr[j] += step[j];
                else
                    for (int64_t j = 0; j < d; j++)
                        wr[j] -= step[j];
                bias[r] += lr * t[r];
            }
        }
    }
    for (int64_t i = 0; i < rows * d; i++)
        w[i] *= scale;
}

/* numpy's bitgen_t (numpy/random/bitgen.h): a Generator's bit generator as
 * rng.bit_generator.ctypes.bit_generator points to it */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *state);
    uint32_t (*next_uint32)(void *state);
    double (*next_double)(void *state);
    uint64_t (*next_raw)(void *state);
} bitgen_t;

/* A value in [0, top] for top < 2^32 - 1, as numpy's
 * random_bounded_uint64(bitgen, 0, top, 0, 0) draws it: nothing for top 0,
 * else Lemire's multiply-and-reject on next_uint32. */
static uint32_t bounded(bitgen_t *bitgen, uint32_t top)
{
    if (top == 0)
        return 0;
    const uint32_t span = top + 1;
    uint64_t m = (uint64_t)bitgen->next_uint32(bitgen->state) * span;
    uint32_t leftover = (uint32_t)m;
    if (leftover < span) {
        const uint32_t threshold = (UINT32_MAX - top) % span;
        while (leftover < threshold) {
            m = (uint64_t)bitgen->next_uint32(bitgen->state) * span;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

/* rng.choice(d, size, replace=False) for 1 <= size <= d < 2^31, drawn from
 * the same bit generator in the same order as numpy's Generator.choice:
 * Floyd's algorithm over j = d - size .. d - 1 (numpy takes it whenever
 * d <= 10000 or size <= d // 50, so always for size = ceil(sqrt(d))), then
 * a Fisher-Yates shuffle swapping out[i] with out[bounded(i)] for
 * i = size - 1 .. 1.  seen holds d zero bytes, and does again on return. */
void fedtab_draw(bitgen_t *bitgen, int64_t d, int64_t size, int64_t *out, uint8_t *seen)
{
    for (int64_t j = d - size; j < d; j++) {
        int64_t value = bounded(bitgen, (uint32_t)j);
        if (seen[value])
            value = j; /* j itself is not drawn yet: every earlier value is below it */
        seen[value] = 1;
        out[j - (d - size)] = value;
    }
    for (int64_t i = size - 1; i > 0; i--) {
        const int64_t j = bounded(bitgen, (uint32_t)i), swap = out[i];
        out[i] = out[j];
        out[j] = swap;
    }
    for (int64_t i = 0; i < size; i++)
        seen[out[i]] = 0;
}

/* One forest's ranked features and one tree's buffers (fedtab.kernel._RankedTree).
 * ranks[f * n_samples + row] is the dense rank of X[row, f] among column f's
 * distinct values, which values[offsets[f] .. offsets[f + 1]) holds in
 * ascending order; -0.0 and 0.0 are one value.  rows holds the tree's n_rows
 * bootstrap rows; each split partitions a node's slice of it in place.
 * subset holds d features.  work holds n_rows + 3 * n_classes int64s for
 * fedtab_split, then d int64s whose first d bytes are zero (WORK_SEEN), then
 * a (K, n_classes) histogram, K the most distinct values of any feature
 * (WORK_HISTOGRAM). */
typedef struct {
    const int32_t *ranks;
    const double *values;
    const int64_t *offsets;
    int64_t n_samples;
    int64_t d;
    const int64_t *y;
    int64_t n_classes;
    int64_t min_leaf;
    int64_t *rows;
    int64_t n_rows;
    int64_t *subset;
    double threshold;
    int64_t *child_counts;
    int64_t *work;
} ranked_tree;

#define WORK_SEEN(t) ((uint8_t *)((t)->work + (t)->n_rows + 3 * (t)->n_classes))
#define WORK_HISTOGRAM(t) ((t)->work + (t)->n_rows + 3 * (t)->n_classes + (t)->d)

/* Dense ranks of the column holding column[row * stride] for row in [0, n),
 * given `order`, its rows in ascending order of value: ranks[row] is the
 * number of distinct values below the row's, and values[0 .. k) gets the k
 * distinct values in ascending order.  Returns k.  Equal values compare
 * equal however they are ordered, -0.0 and 0.0 included, so the ranks do not
 * depend on how the sort orders ties. */
int64_t fedtab_rank(const double *column, int64_t stride, const int64_t *order, int64_t n,
                    int32_t *ranks, double *values)
{
    int64_t k = 0;
    for (int64_t i = 0; i < n; i++) {
        const double value = column[order[i] * stride];
        if (k == 0 || value != values[k - 1])
            values[k++] = value;
        ranks[order[i]] = (int32_t)(k - 1);
    }
    return k;
}

/* models._gini: 1 - the sum of (counts / size) ** 2, added in class order */
static double gini(const int64_t *counts, int64_t n_classes, int64_t size)
{
    double sum = 0.0;
    for (int64_t c = 0; c < n_classes; c++) {
        const double ratio = (double)counts[c] / (double)size;
        sum += ratio * ratio;
    }
    return 1.0 - sum;
}

/* Split the node holding rows[start .. start + n) on the features
 * subset[0 .. n_subset), each in [0, d), as models._best_split does.
 * Returns the subset position of the split feature, or -1 for a leaf (no cut
 * with a positive gain).  On a split, sets t->threshold, partitions the
 * node's rows into left then right, each in its original order, and writes
 * the left and then the right class counts to t->child_counts.
 *
 * The node's rows are counted per (rank, class) in a histogram.  A
 * feature's cuts lie between the ranks present at the node, scored in
 * ascending order with the rows of every lower rank on the left; how equal
 * values are ordered never matters. */
static int64_t fedtab_split(ranked_tree *t, int64_t start, int64_t n, int64_t n_subset)
{
    const int64_t n_classes = t->n_classes, min_leaf = t->min_leaf;
    const int64_t *y = t->y;
    int64_t *rows = t->rows + start;
    int64_t *right_rows = t->work, *counts = right_rows + t->n_rows;
    int64_t *left = counts + n_classes, *right = left + n_classes;
    int64_t *hist = WORK_HISTOGRAM(t);

    memset(counts, 0, (size_t)n_classes * sizeof *counts);
    for (int64_t i = 0; i < n; i++)
        counts[y[rows[i]]]++;
    const double parent = gini(counts, n_classes, n);

    double best = 0.0;
    int64_t best_f = -1, lo_rank = 0, hi_rank = 0;
    for (int64_t f = 0; f < n_subset; f++) {
        const int64_t feature = t->subset[f];
        const int32_t *rank = t->ranks + feature * t->n_samples;
        const int64_t n_values = t->offsets[feature + 1] - t->offsets[feature];
        memset(hist, 0, (size_t)(n_values * n_classes) * sizeof *hist);
        for (int64_t i = 0; i < n; i++)
            hist[rank[rows[i]] * n_classes + y[rows[i]]]++;
        /* left holds the nl rows below rank r; min_leaf rows on each side
         * means min_leaf <= nl <= n - min_leaf */
        memset(left, 0, (size_t)n_classes * sizeof *left);
        int64_t nl = 0, prev = -1, r = -1;
        while (nl <= n - min_leaf) {
            const int64_t *h = hist;
            for (int64_t size = 0; size == 0;) { /* the next rank present at the node */
                h = hist + ++r * n_classes;
                for (int64_t c = 0; c < n_classes; c++)
                    size += h[c];
            }
            if (nl >= min_leaf) { /* the cut between ranks prev and r */
                const int64_t nr = n - nl;
                for (int64_t c = 0; c < n_classes; c++)
                    right[c] = counts[c] - left[c];
                const double gl = gini(left, n_classes, nl);
                const double gr = gini(right, n_classes, nr);
                const double weighted = ((double)nl * gl + (double)nr * gr) / (double)n;
                const double gain = parent - weighted;
                if (gain > best) { /* the first maximum, and only a positive gain */
                    best = gain;
                    best_f = f;
                    lo_rank = prev;
                    hi_rank = r;
                }
            }
            for (int64_t c = 0; c < n_classes; c++) {
                left[c] += h[c];
                nl += h[c];
            }
            prev = r;
        }
    }
    if (best_f < 0)
        return -1;

    const int64_t feature = t->subset[best_f];
    const double lo = t->values[t->offsets[feature] + lo_rank];
    const double hi = t->values[t->offsets[feature] + hi_rank];
    double threshold = (lo + hi) / 2.0;
    if (!(lo <= threshold && threshold < hi)) /* adjacent floats can round the midpoint up */
        threshold = lo;
    t->threshold = threshold;

    /* lo <= threshold < hi: a node's row has value <= threshold iff rank <= lo_rank */
    const int32_t *rank = t->ranks + feature * t->n_samples;
    int64_t *child = t->child_counts;
    int64_t n_left = 0, n_right = 0;
    memset(child, 0, 2 * (size_t)n_classes * sizeof *child);
    for (int64_t i = 0; i < n; i++) {
        const int64_t row = rows[i];
        if (rank[row] <= lo_rank) {
            rows[n_left++] = row;
            child[y[row]]++;
        } else {
            right_rows[n_right++] = row;
            child[n_classes + y[row]]++;
        }
    }
    memcpy(rows + n_left, right_rows, (size_t)n_right * sizeof *rows);
    return best_f;
}

/* Grow one tree on t->rows as models._grow_tree does, drawing each node's
 * n_subset features from bitgen as its rng.choice would.  Nodes come off an
 * explicit stack, a split node's left child before its right, into the
 * preorder arrays feature, threshold, right and counts (n_classes per node),
 * which hold `capacity` nodes.  stack holds stack_capacity entries of
 * 4 + n_classes int64s.  Returns the node count, or -3 when the arrays or the
 * stack would overflow. */
int64_t fedtab_grow(ranked_tree *t, bitgen_t *bitgen, int64_t n_subset, int64_t max_depth,
                    int64_t capacity, int64_t *feature, double *threshold, int64_t *right,
                    int64_t *counts, int64_t *stack, int64_t stack_capacity)
{
    const int64_t n_classes = t->n_classes, stride = 4 + n_classes;
    uint8_t *seen = WORK_SEEN(t);
    int64_t n_nodes = 0, top = 1;

    /* an entry: first row, end row, depth, node whose right child it is, class counts */
    stack[0] = 0;
    stack[1] = t->n_rows;
    stack[2] = 0;
    stack[3] = -1;
    memset(stack + 4, 0, (size_t)n_classes * sizeof *stack);
    for (int64_t i = 0; i < t->n_rows; i++)
        stack[4 + t->y[t->rows[i]]]++;
    while (top > 0) {
        const int64_t *entry = stack + --top * stride;
        const int64_t start = entry[0], stop = entry[1], depth = entry[2], parent = entry[3];
        if (n_nodes == capacity)
            return -3;
        const int64_t node = n_nodes++;
        if (parent >= 0)
            right[parent] = node;
        feature[node] = -1;
        threshold[node] = 0.0;
        right[node] = -1;
        memcpy(counts + node * n_classes, entry + 4, (size_t)n_classes * sizeof *counts);

        const int64_t n = stop - start;
        int64_t most = 0;
        for (int64_t c = 0; c < n_classes; c++)
            most = entry[4 + c] > most ? entry[4 + c] : most;
        if (depth >= max_depth || n < 2 * t->min_leaf || most == n)
            continue;
        fedtab_draw(bitgen, t->d, n_subset, t->subset, seen);
        const int64_t i = fedtab_split(t, start, n, n_subset);
        if (i < 0)
            continue;
        if (top + 2 > stack_capacity)
            return -3;
        feature[node] = t->subset[i];
        threshold[node] = t->threshold;
        int64_t middle = start;
        for (int64_t c = 0; c < n_classes; c++)
            middle += t->child_counts[c];
        const int64_t children[2][4] = {
            {middle, stop, depth + 1, node}, {start, middle, depth + 1, -1}
        };
        for (int k = 0; k < 2; k++) { /* the right child, then the left on top */
            int64_t *child = stack + top++ * stride;
            memcpy(child, children[k], sizeof children[k]);
            memcpy(child + 4, t->child_counts + (1 - k) * n_classes,
                   (size_t)n_classes * sizeof *child);
        }
    }
    return n_nodes;
}

/* The leaf each of the n rows of the row-major (n, d) block X reaches in a
 * tree of preorder node arrays, as models._leaf_index walks it: a split
 * node sends a row left when x[feature] <= threshold.  models.Tree has
 * checked that every feature lies in [-1, d) and every split node's children
 * come after it inside the tree, so each walk ends at a leaf. */
void fedtab_route(int64_t n, int64_t d, const double *X, const int64_t *feature,
                  const double *threshold, const int64_t *left, const int64_t *right,
                  int64_t *leaf)
{
    for (int64_t i = 0; i < n; i++) {
        const double *x = X + i * d;
        int64_t node = 0;
        while (feature[node] >= 0)
            node = x[feature[node]] <= threshold[node] ? left[node] : right[node];
        leaf[i] = node;
    }
}
