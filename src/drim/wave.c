/* The opinion algebra of drim, its wave kernel (one party turn in one
   call) and its seed scorer.

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

     - every neighbour of the level's senders is ORed into a bitmap of
       n/64 words without a test; the bits not yet seen (seeds of either
       party, users reached earlier in the wave) are the level, read off
       in ascending id order;
     - 2·s uniforms are drawn from the replica's generator, s read draws
       then s share draws, as numpy's rng.random((2, s)) draws them;
     - each target that reads and is not frozen fuses, in ascending id
       order, its neighbours that shared at the previous level, applying
       the UOM refresh before a fusion when it is due, and checking the
       freeze latch (with its UOM exemption) after one; a degenerate pair
       (beta <= 1e-12) is counted and skipped;
     - the targets that read and share are the next level's senders.
   Readers, senders and a reader's sharing neighbours are compacted
   with an add, not a branch. After the turn it counts each replica's
   decided users, with population.decided_influence_counts' comparisons.

   drim_select_seeds scores the four seed-selection strategies of
   drim.strategies for each replica on its own view, and picks as
   numpy's argmax picked.

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

/* A replica's tally: the WaveCounters fields, in their declaration
   order, then its decided (true, false) counts after the turn */
enum { REACHED, READS, FUSIONS, REFRESHES, FROZEN, DEGENERATE, DECIDED_TRUE, DECIDED_FALSE,
       TALLY };

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

/* Reader t fuses its neighbours that shared at the previous level,
   first compacted into `hits` in ascending id order */
static void fuse_senders(const users *p, int64_t t, const int64_t *indptr,
                         const int64_t *indices, const uint8_t *shared, int64_t *hits,
                         const trust_model *m, int64_t *count)
{
    int64_t h = 0;
    for (int64_t k = indptr[t]; k < indptr[t + 1]; k++) {
        hits[h] = indices[k];
        h += shared[indices[k]];
    }
    opinion o = opinion_at(p, t);
    for (int64_t i = 0; i < h; i++) {
        if (refresh_due(o, m)) {
            o = vacuity_maximize(o);
            count[REFRESHES]++;
        }
        opinion sender = opinion_at(p, hits[i]);
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

/* Projected belief P(b) = b + a·u, in numpy's operand order */
static double projected_belief(const double *b, const double *u, const double *a, int64_t v)
{
    return b[v] + a[v] * u[v];
}

/* Adds each replica's counters to its row of tally, and writes the
   decided counts after the turn: users with u < free_vacuity, split by
   P(b) >= 0.5 and P(b) < 0.5 (a NaN P(b) on neither side), as
   population.decided_influence_counts counts them. Returns 0, or -1
   when the scratch memory could not be allocated. */
int drim_propagate_turn(int64_t replicas, int64_t n, const int64_t *indptr,
                        const int64_t *indices, double *b, double *d, double *u, double *a,
                        const double *p_read, const double *p_share, const int8_t *role,
                        uint8_t *frozen, int8_t seed_role, int model_code, double xi,
                        double t_d, double t_u, double free_vacuity, int64_t waves,
                        void *const *states, const next_double_fn *next_double,
                        int64_t *tally)
{
    trust_model m = {model_code, xi, t_d, t_u};
    size_t words = ((size_t)n + 63) / 64;
    /* One bit per user: seeds marks the seeds of either party; per wave,
       seen starts from it and adds the users reached so far, and fresh
       takes every neighbour of the level's senders, seen or not. */
    uint64_t *seeds = malloc(words * sizeof *seeds);
    uint64_t *seen = malloc(words * sizeof *seen);
    uint64_t *fresh = calloc(words, sizeof *fresh);
    uint8_t *shared = calloc((size_t)n, 1);
    int64_t *origins = malloc((size_t)n * sizeof *origins);
    int64_t *sharers = malloc((size_t)n * sizeof *sharers);
    int64_t *level = malloc((size_t)n * sizeof *level);
    int64_t *readers = malloc((size_t)n * sizeof *readers);
    int64_t *hits = malloc((size_t)n * sizeof *hits);
    double *draws = malloc(2 * (size_t)n * sizeof *draws);
    int status = -1;
    if (!seeds || !seen || !fresh || !shared || !origins || !sharers || !level || !readers
        || !hits || !draws)
        goto done;

    for (int64_t r = 0; r < replicas; r++) {
        int64_t at = r * n;
        users p = {b + at, d + at, u + at, a + at, p_read + at, p_share + at, role + at,
                   frozen + at};
        void *state = states[r];
        next_double_fn draw = next_double[r];
        int64_t *count = tally + r * TALLY;
        /* Seeds of either party never read or update; own seeds are the
           origins. No role changes within a turn. */
        int64_t own = 0;
        for (size_t w = 0; w < words; w++)
            seeds[w] = 0;
        for (int64_t v = 0; v < n; v++) {
            seeds[v / 64] |= (uint64_t)(p.role[v] != LEGITIMATE) << (v % 64);
            origins[own] = v;
            own += p.role[v] == seed_role;
        }
        for (int64_t wave = 0; wave < waves; wave++) {
            for (size_t w = 0; w < words; w++)
                seen[w] = seeds[w];
            int64_t senders = own;
            for (int64_t i = 0; i < senders; i++) {
                sharers[i] = origins[i];
                shared[origins[i]] = 1;
            }
            while (senders) {
                for (int64_t i = 0; i < senders; i++) {
                    int64_t v = sharers[i];
                    for (int64_t k = indptr[v]; k < indptr[v + 1]; k++)
                        fresh[indices[k] / 64] |= (uint64_t)1 << (indices[k] % 64);
                }
                /* The level: its users not seen before, in ascending order */
                int64_t s = 0;
                for (size_t w = 0; w < words; w++) {
                    uint64_t bits = fresh[w] & ~seen[w];
                    seen[w] |= bits;
                    fresh[w] = 0;
                    for (; bits; bits &= bits - 1)
                        level[s++] = (int64_t)w * 64 + __builtin_ctzll(bits);
                }
                for (int64_t i = 0; i < 2 * s; i++)
                    draws[i] = draw(state);
                count[REACHED] += s;
                /* Readers that are not frozen fuse; those that read and
                   share replace the level's users in place, in order. No
                   fusion reads another reader's opinion or draw. */
                int64_t reads = 0, fusing = 0, next = 0;
                for (int64_t i = 0; i < s; i++) {
                    int64_t t = level[i];
                    int read = draws[i] < p.p_read[t];
                    reads += read;
                    readers[fusing] = t;
                    fusing += read & !p.frozen[t];
                    level[next] = t;
                    next += read & (draws[s + i] < p.p_share[t]);
                }
                count[READS] += reads;
                for (int64_t i = 0; i < fusing; i++)
                    fuse_senders(&p, readers[i], indptr, indices, shared, hits, &m, count);
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
        count[DECIDED_TRUE] = count[DECIDED_FALSE] = 0;
        for (int64_t v = 0; v < n; v++) {
            double pb = projected_belief(p.b, p.u, p.a, v);
            int decided = p.u[v] < free_vacuity;
            count[DECIDED_TRUE] += decided & (pb >= 0.5);
            count[DECIDED_FALSE] += decided & (pb < 0.5);
        }
    }
    status = 0;
done:
    free(seeds);
    free(seen);
    free(fresh);
    free(shared);
    free(origins);
    free(sharers);
    free(level);
    free(readers);
    free(hits);
    free(draws);
    return status;
}

/* The seed-selection strategies, as drim.strategies numbers them */
enum { KIND_AF, KIND_BF, KIND_SGF, KIND_CF };

/* BF's mark of a user: 1 when it is free, plus ALIGNED when it leans to
   the opponent. A sum of marks over a candidate's neighbours holds its
   free neighbours in the low 32 bits and its aligned ones above them. */
#define ALIGNED ((uint64_t)1 << 32)
#define FREE_MASK (ALIGNED - 1)

/* Per replica r, the user of 0 … n-1 that strategy kinds[r] scores
   highest among replica r's eligible users (legitimate, and in pool
   when pool is not NULL), ties to the lowest id, or -1 when none is
   eligible; picks takes them. Replica r's users are r·n … r·n+n-1 of the
   stacked arrays, and it plans on the view whose CSR is indptrs[r],
   indices[r]. Scores are float64, as numpy compared them:
     AF  p_read · p_share;
     BF  the free neighbours (u >= free_vacuity) of a candidate with at
         least one neighbour aligned with the opponent: P(b) > 0.5 when
         the false party picks (blocks_true), else 1 - P(b) > 0.5; a
         candidate without one is not eligible;
     SGF within2[r][v], the view's 1-to-2-hop neighbourhood sizes;
     CF  the view's degree.
   No score is negative or NaN, so the first eligible user with the top
   score is the one numpy's argmax found among scores of -1 for the
   others. Returns 0, or -1 when BF's scratch memory could not be
   allocated. */
int drim_select_seeds(int64_t replicas, int64_t n, const int32_t *kinds, int blocks_true,
                      const int64_t *const *indptrs, const int64_t *const *indices,
                      const int64_t *const *within2, const double *b, const double *u,
                      const double *a, const double *p_read, const double *p_share,
                      const int8_t *role, const uint8_t *pool, double free_vacuity,
                      int64_t *picks)
{
    uint64_t *marks = NULL;
    for (int64_t r = 0; r < replicas; r++) {
        int64_t at = r * n;
        const int64_t *ip = indptrs[r], *ix = indices[r];
        if (kinds[r] == KIND_BF) {
            if (!marks && !(marks = malloc((size_t)n * sizeof *marks)))
                return -1;
            for (int64_t v = 0; v < n; v++) {
                double pb = projected_belief(b, u, a, at + v);
                int aligned = blocks_true ? pb > 0.5 : 1.0 - pb > 0.5;
                marks[v] = (uint64_t)(u[at + v] >= free_vacuity) + ALIGNED * (uint64_t)aligned;
            }
        }
        int64_t best = -1;
        double top = -1.0;
        for (int64_t v = 0; v < n; v++) {
            if (role[at + v] != LEGITIMATE || (pool && !pool[at + v]))
                continue;
            double score;
            if (kinds[r] == KIND_AF) {
                score = p_read[at + v] * p_share[at + v];
            } else if (kinds[r] == KIND_SGF) {
                score = (double)within2[r][v];
            } else if (kinds[r] == KIND_CF) {
                score = (double)(ip[v + 1] - ip[v]);
            } else { /* KIND_BF */
                uint64_t around = 0;
                for (int64_t k = ip[v]; k < ip[v + 1]; k++)
                    around += marks[ix[k]];
                if (around < ALIGNED)
                    continue;
                score = (double)(around & FREE_MASK);
            }
            if (score > top) {
                best = v;
                top = score;
            }
        }
        picks[r] = best;
    }
    free(marks);
    return 0;
}
