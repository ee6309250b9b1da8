/* fedtab's compiled kernels: one epoch of the linear SVM (models.train_svm)
 * step for step, and one split node of a forest tree (models._grow_tree) as
 * models._best_split finds it.
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

/* One tree's inputs and buffers, bound once per tree (fedtab.kernel._SplitTree).
 * rows holds the tree's bootstrap rows; each split partitions a node's slice
 * of it in place.  work holds 4 * n_rows + 4 * n_classes doubles. */
typedef struct {
    const double *X;
    int64_t d;
    const int64_t *y;
    int64_t n_classes;
    int64_t *rows;
    const int64_t *subset;
    int64_t min_leaf;
    double threshold;
    int64_t *child_counts;
    void *work;
} split_tree;

typedef struct {
    double value;
    int64_t label;
} entry;

/* numpy's pairwise sum of a contiguous float64 array, which its
 * sum(axis=-1) reduces each row with */
static double pairwise_sum(const double *a, int64_t n)
{
    if (n < 8) {
        double res = -0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t half = n / 2;
    half -= half % 8;
    return pairwise_sum(a, half) + pairwise_sum(a + half, n - half);
}

/* models._gini: 1 - sum((counts / size) ** 2) */
static double gini(const int64_t *counts, int64_t n_classes, int64_t size, double *squares)
{
    for (int64_t c = 0; c < n_classes; c++) {
        double ratio = (double)counts[c] / (double)size;
        squares[c] = ratio * ratio;
    }
    return 1.0 - pairwise_sum(squares, n_classes);
}

/* Stable sort by value: insertion-sorted runs of 16, then bottom-up merges.
 * An entry moves past another only when strictly smaller, so equal values,
 * -0.0 and 0.0 included, keep their order, as numpy's kind="stable". */
static void sort_entries(entry *a, entry *tmp, int64_t n)
{
    enum { RUN = 16 };
    for (int64_t lo = 0; lo < n; lo += RUN) {
        int64_t hi = lo + RUN < n ? lo + RUN : n;
        for (int64_t i = lo + 1; i < hi; i++) {
            entry e = a[i];
            int64_t j = i;
            for (; j > lo && e.value < a[j - 1].value; j--)
                a[j] = a[j - 1];
            a[j] = e;
        }
    }
    for (int64_t width = RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo + width < n; lo += 2 * width) {
            int64_t mid = lo + width, hi = mid + width < n ? mid + width : n;
            if (!(a[mid].value < a[mid - 1].value))
                continue; /* the two runs are already in order */
            int64_t n_left = mid - lo, i = 0, j = mid, k = lo;
            memcpy(tmp, a + lo, (size_t)n_left * sizeof *a);
            while (i < n_left && j < hi)
                a[k++] = a[j].value < tmp[i].value ? a[j++] : tmp[i++];
            while (i < n_left)
                a[k++] = tmp[i++];
        }
    }
}

/* Split the node holding rows[start .. start + n) on the features
 * subset[0 .. n_subset).  Returns the subset position of the split feature,
 * -1 for a leaf (no cut with a positive gain) or -2 for a subset entry
 * outside [0, d).  On a split, sets t->threshold, partitions the node's rows
 * into left then right, each in its original order, and writes the left and
 * then the right class counts to t->child_counts. */
int64_t fedtab_split(split_tree *t, int64_t start, int64_t n, int64_t n_subset)
{
    const int64_t n_classes = t->n_classes, d = t->d;
    int64_t *rows = t->rows + start;
    entry *sorted = t->work, *tmp = sorted + n;
    int64_t *counts = (int64_t *)(tmp + n), *left = counts + n_classes;
    int64_t *right = left + n_classes;
    double *squares = (double *)(right + n_classes);

    for (int64_t f = 0; f < n_subset; f++)
        if (t->subset[f] < 0 || t->subset[f] >= d)
            return -2;
    memset(counts, 0, (size_t)n_classes * sizeof *counts);
    for (int64_t i = 0; i < n; i++)
        counts[t->y[rows[i]]]++;
    const double parent = gini(counts, n_classes, n, squares);

    /* cut j sends sorted positions 0..j left; min_leaf rows on each side
     * means first <= j < stop */
    const int64_t first = t->min_leaf - 1, stop = n - t->min_leaf;
    double best = 0.0, lo = 0.0, hi = 0.0;
    int64_t best_f = -1;
    for (int64_t f = 0; f < n_subset; f++) {
        const double *column = t->X + t->subset[f];
        for (int64_t i = 0; i < n; i++) {
            sorted[i].value = column[rows[i] * d];
            sorted[i].label = t->y[rows[i]];
        }
        sort_entries(sorted, tmp, n);
        memset(left, 0, (size_t)n_classes * sizeof *left);
        for (int64_t j = 0; j < stop; j++) {
            left[sorted[j].label]++;
            if (j < first || sorted[j].value == sorted[j + 1].value)
                continue;
            const int64_t nl = j + 1, nr = n - nl;
            for (int64_t c = 0; c < n_classes; c++)
                right[c] = counts[c] - left[c];
            const double gl = gini(left, n_classes, nl, squares);
            const double gr = gini(right, n_classes, nr, squares);
            const double weighted = ((double)nl * gl + (double)nr * gr) / (double)n;
            const double gain = parent - weighted;
            if (gain > best) { /* the first maximum, and only a positive gain */
                best = gain;
                best_f = f;
                lo = sorted[j].value;
                hi = sorted[j + 1].value;
            }
        }
    }
    if (best_f < 0)
        return -1;

    double threshold = (lo + hi) / 2.0;
    if (!(lo <= threshold && threshold < hi)) /* adjacent floats can round the midpoint up */
        threshold = lo;
    t->threshold = threshold;

    const double *column = t->X + t->subset[best_f];
    int64_t *right_rows = (int64_t *)tmp, *child = t->child_counts;
    int64_t n_left = 0, n_right = 0;
    memset(child, 0, 2 * (size_t)n_classes * sizeof *child);
    for (int64_t i = 0; i < n; i++) {
        const int64_t row = rows[i];
        if (column[row * d] <= threshold) {
            rows[n_left++] = row;
            child[t->y[row]]++;
        } else {
            right_rows[n_right++] = row;
            child[n_classes + t->y[row]]++;
        }
    }
    memcpy(rows + n_left, right_rows, (size_t)n_right * sizeof *rows);
    return best_f;
}
