/* Native kernel of search.Engine: the per-node loop of Engine.run and
 * Engine.branch over uint64_t masks, for g <= 64; native.walker drives it
 * below one root, and Engine.run enters the roots one after another.
 *
 * The Python Engine owns every rule of the search and hands this file
 * only masks of length g, in its own layout, as fs_init(state, g, full,
 * sum_bits, cls_mask, sum_mask, partners, classes, sums, root) takes them:
 *   full                          the elements of G \ H;
 *   sum_bits[s]                   what a pair of sum s adds to the used
 *                                 sums (0 at the frame level);
 *   cls_mask                      the difference classes d a starter
 *                                 must realize;
 *   sum_mask                      the sum classes {t, -t} a skew starter
 *                                 must hit, by t (0 below skew);
 *   partners[x], classes[d],      below the root (Engine.root_masks):
 *   sums[v]                       the feasible partners of x, the base
 *                                 points x of class d's feasible pairs
 *                                 {x, x+d} and the x of the feasible
 *                                 pairs {x, v-x};
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
 * fs_leaves(state, pause_at, cap, out), the entry native.walker calls,
 * calls fs_step until it has cap leaves (FS_LEAF), the tree ends
 * (FS_DONE) or a pause is due (FS_PAUSE), and returns that code.  It
 * writes the node count, the depth and the number k of leaves since the
 * last call to out[0..2], then the k leaves' pairs, depth + 1 codes per
 * leaf, from out[3]; every leaf of one search has the same depth, the
 * pair count less one.  out holds 3 + cap * (depth + 1) codes.  fs_step
 * writes a leaf in tree order; fs_leaves writes it ascending by (lo, hi),
 * the order of a starter's pairs, so native.walker sorts no leaf.
 *
 * fs_step's loop is the hot path: every rewrite of it that was measured
 * (a leaf `continue` inside the loop, or the loop moved into a helper,
 * inlined or not) cost 6-8% nodes/s under GCC 12 -O2 -march=native.
 * fs_leaves therefore calls fs_step, which is exported and so, under
 * -fPIC, never inlined into it.  The sum-class scan is the noinline
 * sum_scan, called only when the element and class scans leave more
 * than SUM_SCAN_ABOVE placements, and the fields only it reads follow
 * the frames, so fs_step's element and class loops keep their
 * instruction sequences, registers aside, and field offsets. */
#include <stdint.h>
#include <string.h>

#define MAXG 64
#define MAXD (MAXG / 2 + 1)
#define SUM_SCAN_ABOVE 3   /* search._SUM_SCAN_ABOVE */

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
    uint64_t sum_mask;    /* read by sum_scan alone, after the frames */
    const uint64_t *sums;
};

size_t fs_size(void) { return sizeof(struct fs); }

void fs_init(struct fs *s, int g, uint64_t full, const uint64_t *sum_bits,
             uint64_t cls_mask, uint64_t sum_mask, const uint64_t *partners,
             const uint64_t *classes, const uint64_t *sums,
             const uint8_t *root)
{
    memset(s, 0, sizeof *s);
    s->g = g; s->full = full; s->mask_g = ~0ULL >> (64 - g);
    s->sum_bits = sum_bits; s->cls_mask = cls_mask; s->sum_mask = sum_mask;
    s->part = partners; s->cls = classes; s->sums = sums;
    s->f[0].n = 1;
    s->f[0].lo[0] = root[0]; s->f[0].hi[0] = root[1];
}

/* m rotated left by k, 0 <= k < g, within g bits. */
static inline uint64_t rot(uint64_t m, int k, int g, uint64_t mask_g)
{
    return k ? (m << k | m >> (g - k)) & mask_g : m;
}

/* Bits 0, 2, 4, ... of m packed into bits 0, 1, 2, ... */
static inline uint64_t evens(uint64_t m)
{
    m &= 0x5555555555555555ULL;
    m = (m | m >> 1) & 0x3333333333333333ULL;
    m = (m | m >> 2) & 0x0F0F0F0F0F0F0F0FULL;
    m = (m | m >> 4) & 0x00FF00FF00FF00FFULL;
    m = (m | m >> 8) & 0x0000FFFF0000FFFFULL;
    return (m | m >> 16) & 0x00000000FFFFFFFFULL;
}

/* m with bit i moved to bit 63 - i. */
static inline uint64_t reverse(uint64_t m)
{
    m = (m >> 1 & 0x5555555555555555ULL) | (m & 0x5555555555555555ULL) << 1;
    m = (m >> 2 & 0x3333333333333333ULL) | (m & 0x3333333333333333ULL) << 2;
    m = (m >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (m & 0x0F0F0F0F0F0F0F0FULL) << 4;
    return __builtin_bswap64(m);
}

/* M_v = free & refl_v(free) & sums[v] & half_v(notdiff), the x whose pair
 * {x, v-x} is open: refl_v(m) = {x : v-x in m} is a rotation of m
 * bit-reversed (refl), and half_v(m) = {x : 2x - v in m} (= {x : v - 2x in
 * m}, as m = -m) a rotation of m halved (half[v & 1]). */
static inline uint64_t open_pairs(const struct fs *s, int v, uint64_t free,
                                  uint64_t refl, const uint64_t *half)
{
    int g = s->g, by = (v + (v & 1) * (g & 1 ? g : 1)) >> 1;
    return free & rot(refl, v + 1 < g ? v + 1 : 0, g, s->mask_g) & s->sums[v]
           & rot(half[v & 1], by, g, s->mask_g);
}

/* Engine.branch's scan of the open skew sum classes {t, -t}, ascending by t,
 * once the element and class scans leave best_n > SUM_SCAN_ABOVE
 * placements.  notdiff halved is d -> d(g+1)/2 for odd g, and for even g
 * two g/2-bit masks repeated twice, d/2 for even d and (d+1)/2 for odd d.
 * Each pair is in M_v twice, so the class has (|M_t| + |M_-t|) / 2
 * placements.  Fills fr with those of the first class of fewest
 * placements, if fewer than best_n, ascending, and returns their number;
 * returns 0 when an open class has none (the node is dead) and -1 when no
 * class has fewer than best_n. */
static __attribute__((noinline)) int
sum_scan(const struct fs *s, struct frame *fr, uint64_t free,
         uint64_t notdiff, int best_n)
{
    int g = s->g, t = 0, n;
    uint64_t a = 0, b = 0, ma, mb;
    uint64_t refl = reverse(free) >> (64 - g);  /* bit g-1-y for y free */
    uint64_t ev = evens(notdiff), od = evens(notdiff >> 1), half[2];
    if (g & 1) {
        half[0] = half[1] = ev | od << (g + 1) / 2;
    } else {
        half[0] = ev | ev << g / 2;
        half[1] = od | od << g / 2;
    }
    for (uint64_t scan = ~fr->us & s->sum_mask; scan; scan &= scan - 1) {
        int v = __builtin_ctzll(scan);
        ma = open_pairs(s, v, free, refl, half);
        mb = open_pairs(s, g - v, free, refl, half);
        n = (__builtin_popcountll(ma) + __builtin_popcountll(mb)) >> 1;
        if (n == 0) return 0;
        if (n < best_n) {
            best_n = n; t = v; a = ma; b = mb;
            if (n == 1) break;
        }
    }
    if (!t) return -1;
    for (uint64_t m = a | b; m; m &= m - 1) {
        int x = __builtin_ctzll(m);
        int y = a >> x & 1 ? (t - x + g) % g : -1;    /* x + y = t */
        int z = b >> x & 1 ? (2 * g - t - x) % g : -1;  /* x + z = -t */
        if (y > z) { int k = y; y = z; z = k; }
        if (y > x) { fr->lo[fr->n] = x; fr->hi[fr->n++] = y; }
        if (z > x) { fr->lo[fr->n] = x; fr->hi[fr->n++] = z; }
    }
    return fr->n;
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
    /* best_n is opts' count; reading it from opts keeps it out of the
     * class loop's registers */
    if (s->sum_mask && (n = __builtin_popcountll(opts)) > SUM_SCAN_ABOVE) {
        n = sum_scan(s, fr, free, notdiff, n);
        if (n >= 0) return n;
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
        /* insertion by lo: no two pairs share a lo, so (lo, hi) order */
        for (int n = 0; n <= (int)step[1]; n++) {
            uint64_t code = step[2 + n];
            int j = n;
            for (; j > 0 && (leaf[j - 1] & 255) > (code & 255); j--)
                leaf[j] = leaf[j - 1];
            leaf[j] = code;
        }
        leaf += step[1] + 1;
        if (++k == cap)
            break;
    }
    out[0] = step[0];
    out[1] = step[1];
    out[2] = k;
    return rc;
}
