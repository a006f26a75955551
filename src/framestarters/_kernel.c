/* Native kernel of search.Engine: the per-node loop of Engine.run and
 * Engine.branch over uint64_t masks, for g <= 64; native.stepper drives it
 * below one root, and Engine.run enters the roots one after another.
 *
 * The Python Engine owns every rule of the search and hands this file
 * only masks of length g, in its own layout, as fs_init(state, g, full,
 * sum_bits, cls_mask, partners, classes, root) takes them:
 *   full                          the elements of G \ H;
 *   sum_bits[s]                   what a pair of sum s adds to the used
 *                                 sums (0 at the frame level);
 *   cls_mask                      the difference classes d a starter
 *                                 must realize;
 *   partners[x]                   the feasible partners of x and the base
 *   classes[d]                    points x of class d's feasible pairs
 *                                 {x, x+d} below the root
 *                                 (Engine.root_masks);
 *   root[0], root[1]              the root placement, lo then hi.
 * A placement (x, y), x < y, adds the differences 1 << y-x | 1 << g-y+x.
 * The kernel only walks the tree the masks define, in Engine.run's order,
 * so it visits the same nodes and reaches the same leaves.  It is
 * compiled for the host CPU where the compiler allows (-march=native:
 * hardware popcount, tzcnt and BMI2 shifts).
 *
 * fs_step runs until the tree is exhausted (FS_DONE), a placement
 * completes a pairing (FS_LEAF), or a node is about to be visited while
 * nodes == pause_at (FS_PAUSE).  It writes the node count and depth to
 * out[0..1] and, at a leaf, the pairing's pairs (lo | hi << 8) to
 * out[2..2 + depth].  Calling it again resumes the search.
 *
 * fs_leaves(state, pause_at, cap, out), the entry native.stepper calls,
 * calls fs_step until it has cap leaves (FS_LEAF), the tree ends
 * (FS_DONE) or a pause is due (FS_PAUSE), and returns that code.  It
 * writes the node count, the depth and the number k of leaves since the
 * last call to out[0..2], then the k leaves' pairs, depth + 1 codes per
 * leaf, from out[3]; every leaf of one search has the same depth, the
 * pair count less one.  out holds 3 + cap * (depth + 1) codes.
 *
 * fs_step's loop is the hot path: every rewrite of it that was measured
 * (a leaf `continue` inside the loop, or the loop moved into a helper,
 * inlined or not) cost 6-8% nodes/s under GCC 12 -O2 -march=native.
 * fs_leaves therefore calls fs_step, which is exported and so, under
 * -fPIC, never inlined into it: fs_step's machine code is unchanged. */
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
    int g, depth;
    uint64_t full, mask_g, cls_mask, nodes;
    const uint64_t *sum_bits, *part, *cls;
    struct frame f[MAXD];
};

size_t fs_size(void) { return sizeof(struct fs); }

void fs_init(struct fs *s, int g, uint64_t full, const uint64_t *sum_bits,
             uint64_t cls_mask, const uint64_t *partners,
             const uint64_t *classes, const uint8_t *root)
{
    memset(s, 0, sizeof *s);
    s->g = g; s->full = full; s->mask_g = ~0ULL >> (64 - g);
    s->sum_bits = sum_bits; s->cls_mask = cls_mask;
    s->part = partners; s->cls = classes;
    s->f[0].n = 1;
    s->f[0].lo[0] = root[0]; s->f[0].hi[0] = root[1];
}

/* Engine.branch: fill fr with the placements of the most constrained open
 * requirement, ascending; returns their number. */
static int branch(const struct fs *s, struct frame *fr)
{
    int g = s->g, best_n = g + 1, key = 0, by_class = 0, n;
    uint64_t mask_g = s->mask_g, free = s->full & ~fr->used;
    uint64_t notdiff = ~fr->ud & mask_g, notsum = ~fr->us & mask_g;
    uint64_t opts = 0, m;
    fr->n = fr->i = 0;
    for (uint64_t scan = free; scan; scan &= scan - 1) {
        int x = __builtin_ctzll(scan);
        m = free & s->part[x] & (notdiff << x | notdiff >> (g - x))
            & (notsum >> x | notsum << (g - x)) & mask_g;
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
        if (by_class && fr->us & s->sum_bits[x + y < g ? x + y : x + y - g])
            continue;  /* a class's mask is not exact in the sum */
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
        int g = s->g, x = fr->lo[fr->i], y = fr->hi[fr->i++];
        next->used = fr->used | 1ULL << x | 1ULL << y;
        next->ud = fr->ud | 1ULL << (y - x) | 1ULL << (g - y + x);
        next->us = fr->us | s->sum_bits[x + y < g ? x + y : x + y - g];
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

int fs_leaves(struct fs *s, uint64_t pause_at, int cap, uint64_t *out)
{
    uint64_t step[2 + MAXD], *leaf = out + 3;
    int rc, k = 0;
    while ((rc = fs_step(s, pause_at, step)) == FS_LEAF) {
        memcpy(leaf, step + 2, (step[1] + 1) * sizeof *leaf);
        leaf += step[1] + 1;
        if (++k == cap)
            break;
    }
    out[0] = step[0];
    out[1] = step[1];
    out[2] = k;
    return rc;
}
