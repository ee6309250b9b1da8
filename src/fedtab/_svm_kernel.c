/* One epoch of fedtab's linear SVM (models.train_svm), step for step.
 *
 * Built by fedtab.svm_kernel with -ffp-contract=off, so every + and * rounds
 * once, as in Python.  The dots go through the BLAS routines numpy's
 * weights.dot(x) calls, passed in as function pointers: 64-bit-integer
 * cblas_ddot for one weight row, row-major no-transpose cblas_dgemv for more.
 */
#include <stdint.h>

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
