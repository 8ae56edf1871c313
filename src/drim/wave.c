/* The opinion algebra of drim and its wave kernel: one party turn in
   one call.

   The subjective-logic operators below (dissonance, trust, fusion,
   vacuity maximization, the UOM refresh) are drim's only copy of them.
   drim.opinion calls them over arrays through drim_opinion_op, and the
   kernel calls them per pair; `inline` keeps them inlined there. They
   keep numpy's evaluation order, and minimum/maximum numpy's (NaN
   propagates, ties keep the first operand), since the goldens pin the
   bits of the numpy operators they replaced.

   drim_propagate_turn runs `waves` BFS information waves from the
   party's seed set for each of R replicas of a population, one replica
   after another. Replicas share no users and each draws only from its
   own generator, so their order does not matter. Within a replica the
   loop follows the sequential semantics of the scalar reference
   (tests/reference_wave.py), level by level:

     - the fresh targets of the level are marked in a bitmap and read
       off it in ascending id order;
     - 2·s uniforms are drawn from the replica's generator, s read draws
       then s share draws, as numpy's rng.random((2, s)) draws them;
     - each target that reads and is not frozen fuses, in ascending id
       order, its neighbours that shared at the previous level, applying
       the UOM refresh before a fusion when it is due, and checking the
       freeze latch (with its UOM exemption) after one; a degenerate pair
       (beta <= 1e-12) is counted and skipped;
     - the targets that read and share are the next level's senders.

   Build it without contraction into fused multiply-adds
   (-ffp-contract=off) and without fast-math. The bitmap's bits are
   found with __builtin_ctzll, which gcc and clang provide. */

#include <float.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

typedef double (*next_double_fn)(void *state);

/* Trust models, as drim.opinion numbers them */
enum { MODEL_UOM, MODEL_HOM, MODEL_NOM };

/* The WaveCounters fields, in their declaration order */
enum { REACHED, READS, FUSIONS, REFRESHES, FROZEN, DEGENERATE, COUNTERS };

/* Role code of a user that is no seed (population.Role.LEGITIMATE) */
#define LEGITIMATE 0

#define DEGENERATE_TOL 1e-12
#define RENORM_TOL 1e-12

typedef struct {
    double b, d, u, a;
} opinion;

typedef struct {
    int code;
    double xi, t_d, t_u;
} trust_model;

static double maximum(double x, double y) { return (x >= y || x != x) ? x : y; }

static double minimum(double x, double y) { return (x <= y || x != x) ? x : y; }

static inline double dissonance(opinion o)
{
    double mass = o.b + o.d;
    if (!(mass > 0.0))
        return 0.0;
    double bal = 1.0 - fabs(o.b - o.d) / mass;
    return mass * bal;
}

static inline int refresh_due(opinion o, const trust_model *m)
{
    return m->code == MODEL_UOM && o.u < m->xi && dissonance(o) > m->t_d;
}

static inline opinion vacuity_maximize(opinion o)
{
    double pb = o.b + o.a * o.u;
    double pd = o.d + (1.0 - o.a) * o.u;
    int low = o.a < DBL_MIN, high = 1.0 - o.a < DBL_MIN;
    int interior = o.a >= DBL_MIN && 1.0 - o.a >= DBL_MIN;
    double u = minimum(pb / (interior ? o.a : 1.0), pd / (interior ? 1.0 - o.a : 1.0));
    double b = maximum(0.0, pb - o.a * u);
    double d = maximum(0.0, pd - (1.0 - o.a) * u);
    opinion out = {low ? pb : (high ? 0.0 : b), low ? 0.0 : (high ? pd : d),
                   low ? pd : (high ? pb : u), o.a};
    return out;
}

static inline double trust_coefficient(const trust_model *m, opinion i, opinion j)
{
    if (m->code == MODEL_NOM)
        return 1.0;
    if (m->code == MODEL_UOM)
        return (1.0 - i.u) * (1.0 - j.u);
    double denom = hypot(i.b, i.d) * hypot(j.b, j.d);
    int stance = denom > 0.0;
    double cosine = (i.b * j.b + i.d * j.d) / (stance ? denom : 1.0);
    return stance ? minimum(1.0, maximum(0.0, cosine)) : 0.0;
}

/* The pair is degenerate when this is at most DEGENERATE_TOL */
static inline double fusion_beta(opinion i, opinion j, double c)
{
    return 1.0 - c * (1.0 - i.u) * (1.0 - j.u);
}

/* All NaN for a degenerate pair */
static inline opinion fuse(opinion i, opinion j, double c)
{
    double u_x = 1.0 - c * (1.0 - j.u);
    double beta = fusion_beta(i, j, c);
    if (beta <= DEGENERATE_TOL)
        beta = NAN;
    double b = (i.b * u_x + c * j.b * i.u) / beta;
    double d = (i.d * u_x + c * j.d * i.u) / beta;
    double u_ix = i.u * u_x;
    double u = u_ix / beta;

    double a_den = beta - u_ix;
    int keep_a = fabs(a_den) <= DEGENERATE_TOL;
    if (keep_a)
        a_den = 1.0;
    double a = ((i.a - (i.a + j.a) * i.u) * u_x + j.a * i.u) / a_den;
    a = minimum(1.0, maximum(0.0, a));
    if (keep_a)
        a = i.a;

    double total = b + d + u;
    if (fabs(total - 1.0) > RENORM_TOL) {
        b = b / total;
        d = d / total;
        u = u / total;
    }
    opinion out = {b, d, u, a};
    return out;
}

/* The operators of drim_opinion_op, as drim.opinion numbers them */
enum { OP_DISSONANCE, OP_TRUST, OP_FUSE, OP_VACUITY_MAXIMIZE, OP_REFRESH };

/* Element k of a (4, n) array whose rows are b, d, u, a */
static opinion column(const double *rows, int64_t n, int64_t k)
{
    opinion o = {rows[k], rows[n + k], rows[2 * n + k], rows[3 * n + k]};
    return o;
}

/* Operator `op` over n elements. x and y hold (4, n) opinions (y for
   trust and fusion only) and c a fusion's n trust coefficients; out takes
   (4, n) opinions, or the (1, n) values of dissonance and trust. Returns
   the elements OP_REFRESH refreshed, or the degenerate pairs of OP_FUSE
   (their elements all NaN), else 0. */
int64_t drim_opinion_op(int op, int64_t n, int model_code, double xi, double t_d,
                        const double *x, const double *y, const double *c, double *out)
{
    trust_model m = {model_code, xi, t_d, 0.0};
    int64_t count = 0;
    for (int64_t k = 0; k < n; k++) {
        opinion o = column(x, n, k);
        if (op == OP_DISSONANCE) {
            out[k] = dissonance(o);
            continue;
        }
        if (op == OP_TRUST) {
            out[k] = trust_coefficient(&m, o, column(y, n, k));
            continue;
        }
        if (op == OP_FUSE) {
            count += fusion_beta(o, column(y, n, k), c[k]) <= DEGENERATE_TOL;
            o = fuse(o, column(y, n, k), c[k]);
        } else if (op == OP_VACUITY_MAXIMIZE) {
            o = vacuity_maximize(o);
        } else if (refresh_due(o, &m)) { /* OP_REFRESH */
            o = vacuity_maximize(o);
            count++;
        }
        out[k] = o.b;
        out[n + k] = o.d;
        out[2 * n + k] = o.u;
        out[3 * n + k] = o.a;
    }
    return count;
}

/* One replica's users: its slices of the stacked arrays */
typedef struct {
    double *b, *d, *u, *a;
    const double *p_read, *p_share;
    const int8_t *role;
    uint8_t *frozen;
} users;

static opinion opinion_at(const users *p, int64_t v)
{
    opinion o = {p->b[v], p->d[v], p->u[v], p->a[v]};
    return o;
}

/* Reader t fuses its neighbours that shared at the previous level */
static void fuse_senders(const users *p, int64_t t, const int64_t *indptr,
                         const int64_t *indices, const uint8_t *shared,
                         const trust_model *m, int64_t *count)
{
    opinion o = opinion_at(p, t);
    for (int64_t k = indptr[t]; k < indptr[t + 1]; k++) {
        int64_t v = indices[k];
        if (!shared[v])
            continue;
        if (refresh_due(o, m)) {
            o = vacuity_maximize(o);
            count[REFRESHES]++;
        }
        opinion sender = opinion_at(p, v);
        count[FUSIONS]++;
        opinion fused = fuse(o, sender, trust_coefficient(m, o, sender));
        if (fused.u != fused.u) { /* dogmatic pair slipped past the freeze latch */
            count[DEGENERATE]++;
            continue;
        }
        o = fused;
        if (o.u <= m->t_u && !refresh_due(o, m)) {
            p->frozen[t] = 1;
            count[FROZEN]++;
            break;
        }
    }
    p->b[t] = o.b;
    p->d[t] = o.d;
    p->u[t] = o.u;
    p->a[t] = o.a;
}

/* Returns 0, or -1 when the scratch memory could not be allocated. */
int drim_propagate_turn(int64_t replicas, int64_t n, const int64_t *indptr,
                        const int64_t *indices, double *b, double *d, double *u, double *a,
                        const double *p_read, const double *p_share, const int8_t *role,
                        uint8_t *frozen, int8_t seed_role, int model_code, double xi,
                        double t_d, double t_u, int64_t waves, void *const *states,
                        const next_double_fn *next_double, int64_t *counters)
{
    trust_model m = {model_code, xi, t_d, t_u};
    /* Per wave, visited marks the seeds of either party and the users
       reached so far; fresh holds one bit per user of the level being
       collected. */
    uint8_t *visited = malloc((size_t)n);
    uint64_t *fresh = calloc(((size_t)n + 63) / 64, sizeof *fresh);
    uint8_t *shared = calloc((size_t)n, 1);
    int64_t *sharers = malloc((size_t)n * sizeof *sharers);
    int64_t *level = malloc((size_t)n * sizeof *level);
    double *draws = malloc(2 * (size_t)n * sizeof *draws);
    int status = -1;
    if (!visited || !fresh || !shared || !sharers || !level || !draws)
        goto done;

    for (int64_t r = 0; r < replicas; r++) {
        int64_t at = r * n;
        users p = {b + at, d + at, u + at, a + at, p_read + at, p_share + at, role + at,
                   frozen + at};
        void *state = states[r];
        next_double_fn draw = next_double[r];
        int64_t *count = counters + r * COUNTERS;
        for (int64_t wave = 0; wave < waves; wave++) {
            /* Seeds of either party never read or update; own seeds are the origins. */
            int64_t senders = 0;
            for (int64_t v = 0; v < n; v++) {
                visited[v] = p.role[v] != LEGITIMATE;
                if (p.role[v] == seed_role)
                    sharers[senders++] = v;
            }
            for (int64_t i = 0; i < senders; i++)
                shared[sharers[i]] = 1;
            while (senders) {
                int64_t s = 0;
                for (int64_t i = 0; i < senders; i++) {
                    int64_t v = sharers[i];
                    for (int64_t k = indptr[v]; k < indptr[v + 1]; k++) {
                        int64_t t = indices[k];
                        if (!visited[t]) {
                            visited[t] = 1;
                            fresh[t / 64] |= (uint64_t)1 << (t % 64);
                            s++;
                        }
                    }
                }
                /* The level in ascending order, read off its bits */
                for (int64_t w = 0, k = 0; k < s; w++) {
                    for (uint64_t bits = fresh[w]; bits; bits &= bits - 1)
                        level[k++] = w * 64 + __builtin_ctzll(bits);
                    fresh[w] = 0;
                }
                for (int64_t i = 0; i < 2 * s; i++)
                    draws[i] = draw(state);
                count[REACHED] += s;
                /* The level's sharers replace its targets in place, in order. */
                int64_t next = 0;
                for (int64_t i = 0; i < s; i++) {
                    int64_t t = level[i];
                    if (!(draws[i] < p.p_read[t]))
                        continue;
                    count[READS]++;
                    if (!p.frozen[t])
                        fuse_senders(&p, t, indptr, indices, shared, &m, count);
                    if (draws[s + i] < p.p_share[t])
                        level[next++] = t;
                }
                for (int64_t i = 0; i < senders; i++)
                    shared[sharers[i]] = 0;
                for (int64_t i = 0; i < next; i++)
                    shared[level[i]] = 1;
                int64_t *swap = sharers;
                sharers = level;
                level = swap;
                senders = next;
            }
        }
    }
    status = 0;
done:
    free(visited);
    free(fresh);
    free(shared);
    free(sharers);
    free(level);
    free(draws);
    return status;
}
