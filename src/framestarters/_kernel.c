/* Native kernel of search.Engine: the per-node loop of Engine.run and
 * Engine.branch over uint64_t masks, for g <= 64.
 *
 * The Python Engine builds the candidate table once, and this file takes
 * it in the Engine's own layout:
 *   dm[x * g + y], sm[x * g + y]  the difference and sum masks of the
 *                                 ordered pair (x, y); dm == 0 marks an
 *                                 infeasible pair;
 *   partners[x]                   the feasible partners of x;
 *   cls_mask, cls_pl[d]           the difference classes d a starter must
 *                                 realize, and the base points x of class
 *                                 d's feasible pairs {x, x+d};
 * and the root placements.  It only walks the tree they define, in
 * Engine.run's order, so it visits the same nodes and reaches the same
 * leaves.  With the symmetry flag set, each root {x, x+1} of base x >= 2
 * walks copies of partners and cls_pl without the pairs whose unit-
 * multiplier key is below x (Engine.root_masks; filter() below).  It is
 * compiled for the host CPU where the compiler allows (-march=native:
 * hardware popcount, tzcnt and BMI2 shifts).
 *
 * fs_step runs until the tree is exhausted (FS_DONE), a placement
 * completes a pairing (FS_LEAF), or a node is about to be visited while
 * nodes == pause_at (FS_PAUSE).  It writes the node count and depth to
 * out[0..1] and, at a leaf, the pairing's pairs (lo | hi << 8) to
 * out[2..2 + depth].  Calling it again resumes the search. */
#include <stdint.h>
#include <string.h>

#define MAXG 64
#define MAXD (MAXG / 2 + 1)

enum { FS_DONE, FS_LEAF, FS_PAUSE };

struct frame {            /* one node's state and its open placements */
    uint64_t used, ud, us;
    int n, i;
    uint8_t lo[MAXG], hi[MAXG];
};

struct fs {
    int g, strongish, symmetry, depth;
    uint64_t full, mask_g, cls_mask, nodes;
    const uint64_t *dm, *sm, *partners, *cls_pl;
    uint64_t part[MAXG], cls[MAXG];  /* the current root's masks */
    struct frame f[MAXD];
};

size_t fs_size(void) { return sizeof(struct fs); }

void fs_init(struct fs *s, int g, int strongish, int symmetry,
             uint64_t full, uint64_t mask_g, const uint64_t *dm,
             const uint64_t *sm, const uint64_t *partners, uint64_t cls_mask,
             const uint64_t *cls_pl, int nroots, const uint8_t *roots)
{
    memset(s, 0, sizeof *s);
    s->g = g; s->strongish = strongish; s->symmetry = symmetry;
    s->full = full; s->mask_g = mask_g;
    s->dm = dm; s->sm = sm; s->partners = partners;
    s->cls_mask = cls_mask; s->cls_pl = cls_pl;
    memcpy(s->part, partners, g * sizeof *partners);
    memcpy(s->cls, cls_pl, g * sizeof *cls_pl);
    for (int k = 0; k < nroots; k++) {
        s->f[0].lo[k] = roots[2 * k];
        s->f[0].hi[k] = roots[2 * k + 1];
    }
    s->f[0].n = nroots;
}

/* Engine.root_masks: the masks below a root of base x >= 2, without every
 * pair {p, p+d} of unit difference d whose key min(b, g-1-b), with
 * b = p/d mod g, is below x. */
static void filter(struct fs *s, int x)
{
    int g = s->g;
    memcpy(s->part, s->partners, g * sizeof *s->part);
    for (uint64_t scan = s->cls_mask; scan; scan &= scan - 1) {
        int d = __builtin_ctzll(scan), inv = 0;
        for (int e = 1; e < g && !inv; e++)
            inv = d * e % g == 1 ? e : 0;
        s->cls[d] = s->cls_pl[d];
        if (!inv) continue;
        for (uint64_t ps = s->cls_pl[d]; ps; ps &= ps - 1) {
            int p = __builtin_ctzll(ps), q = (p + d) % g, b = inv * p % g;
            if (b < x || g - 1 - b < x) {
                s->cls[d] &= ~(1ULL << p);
                s->part[p] &= ~(1ULL << q);
                s->part[q] &= ~(1ULL << p);
            }
        }
    }
}

/* Engine.branch: fill fr with the placements of the most constrained open
 * requirement, ascending; returns their number. */
static int branch(const struct fs *s, struct frame *fr)
{
    int g = s->g, best_n = g + 1, key = 0, by_class = 0, n;
    uint64_t mask_g = s->mask_g, used = fr->used, free = s->full & ~used;
    uint64_t notdiff = ~fr->ud & mask_g, notsum = ~fr->us & mask_g;
    uint64_t opts = 0, m;
    fr->n = fr->i = 0;
    for (uint64_t scan = free; scan; scan &= scan - 1) {
        int x = __builtin_ctzll(scan);
        m = free & s->part[x]
            & ((notdiff << x | notdiff >> (g - x)) & mask_g);
        if (s->strongish)
            m &= (notsum >> x | notsum << (g - x)) & mask_g;
        n = __builtin_popcountll(m);
        if (n <= 1) {
            if (n == 0) return 0;
            best_n = 1; key = x; opts = m;
            break;
        }
        int better = n < best_n;  /* a tie keeps the first, as in Python */
        best_n = better ? n : best_n;
        key = better ? x : key;
        opts = better ? m : opts;
    }
    if (best_n > 1)
        for (uint64_t scan = notdiff & s->cls_mask; scan; scan &= scan - 1) {
            int d = __builtin_ctzll(scan);
            m = free & ((free >> d | free << (g - d)) & mask_g) & s->cls[d];
            n = __builtin_popcountll(m);
            if (n <= 1) {
                if (n == 0) return 0;
                best_n = 1; key = d; opts = m; by_class = 1;
                break;
            }
            int better = n < best_n;
            best_n = better ? n : best_n;
            key = better ? d : key;
            opts = better ? m : opts;
            by_class |= better;
        }
    for (; opts; opts &= opts - 1) {
        int v = __builtin_ctzll(opts);
        int x = by_class ? v : key, y = by_class ? v + key : v;
        if (y >= g) y -= g;
        if (used & (1ULL << x | 1ULL << y) || fr->ud & s->dm[x * g + y]
            || fr->us & s->sm[x * g + y])
            continue;
        fr->lo[fr->n] = x < y ? x : y;
        fr->hi[fr->n++] = x < y ? y : x;
    }
    return fr->n;
}

int fs_step(struct fs *s, uint64_t pause_at, uint64_t *out)
{
    int rc;
    for (;;) {
        struct frame *fr = &s->f[s->depth], *next = fr + 1;
        if (fr->i == fr->n) {
            if (s->depth == 0) { rc = FS_DONE; break; }
            s->depth--;
            continue;
        }
        if (s->nodes == pause_at) { rc = FS_PAUSE; break; }
        s->nodes++;
        int x = fr->lo[fr->i], y = fr->hi[fr->i++];
        if (s->depth == 0 && s->symmetry && x >= 2)
            filter(s, x);  /* a new root: no key lies below 1 */
        next->used = fr->used | 1ULL << x | 1ULL << y;
        next->ud = fr->ud | s->dm[x * s->g + y];
        next->us = fr->us | s->sm[x * s->g + y];
        if (next->used == s->full) { rc = FS_LEAF; break; }
        if (branch(s, next)) s->depth++;
    }
    out[0] = s->nodes;
    out[1] = s->depth;
    if (rc == FS_LEAF)
        for (int k = 0; k <= s->depth; k++) {
            const struct frame *f = &s->f[k];
            out[2 + k] = f->lo[f->i - 1] | (uint64_t)f->hi[f->i - 1] << 8;
        }
    return rc;
}
