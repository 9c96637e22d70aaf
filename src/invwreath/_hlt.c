/* The HLT enumeration of invwreath.congruence, run natively.
 *
 * The semantics are those of congruence._Engine, node for node: live
 * nodes are taken in creation order; each relation of the node's object
 * is walked from the node in the order given and filled (a missing last
 * letter is deduced, two ends are merged, or the first missing entry is
 * defined, the u side first); processing of a node stops once it is
 * merged away, and otherwise its empty columns are filled in column
 * order.  Merges run off a stack and keep the smaller index.  Node 0 is
 * reserved and 0 means "undefined"; nodes 1 .. budget may be defined.
 *
 * The presentation comes in flat arrays of int:
 *   width[m]      the number of columns of object m, for m < nobj;
 *   target[...]   the target objects of the columns, object by object;
 *   rel_start[m]  where object m's relations start in rel, for m <= nobj;
 *   rel[...]      per relation: |u|, |v|, the columns of u, those of v.
 *
 * Each node first reads the distinct prefixes of its object's relation
 * sides once, each one letter past a shorter one, and a relation whose
 * two sides end at one node holds for good; only the others are walked
 * again and filled.  A merged node's row is never read again, so the
 * next node at its object takes its entries.  A complete run hands back,
 * for each class, its object and where its row starts in the table's
 * entries, which are written in class numbers; the caller frees the
 * three with hlt_free.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { HLT_COMPLETE, HLT_BUDGET, HLT_MISTYPED, HLT_NOMEM };

typedef struct {
    const int *width, *target, *col0;
    int budget;
    int n;                      /* nodes, node 0 included */
    int64_t cap;                /* their capacity */
    int *parent, *robj;         /* a merged node's robj links the spare rows */
    int *spare;                 /* per object: a merged node whose row is free */
    int64_t *start;             /* each node's first entry in cells */
    int *cells;
    int64_t ncells, capcells;
    int *stack;                 /* pending merges, two nodes each */
    int64_t sp, capstack;
    /* per object m, its relation sides' distinct prefixes pstart[m] ..
     * pstart[m+1]-1: prefix 0 is the empty one, prefix k extends
     * pparent[k] by the column pletter[k]; relation q of the run ends its
     * sides at the prefixes uend[q] and vend[q], object m's relations being
     * rfirst[m] .. rfirst[m+1]-1 */
    int *pstart, *pparent, *pletter, *rfirst, *uend, *vend;
    int *ends;                  /* the node reached by each prefix */
} engine;

static int grow(void **p, int64_t *cap, int64_t need, size_t size)
{
    if (need <= *cap)
        return 0;
    int64_t c = *cap ? *cap : 1024;
    while (c < need)
        c *= 2;
    void *q = realloc(*p, (size_t)c * size);
    if (!q)
        return -1;
    *p = q;
    *cap = c;
    return 0;
}

/* node index or -HLT_BUDGET / -HLT_NOMEM */
static int new_node(engine *e, int r)
{
    int idx = e->n;
    if (idx > e->budget)
        return -HLT_BUDGET;
    if (idx == e->cap) {
        int64_t c = e->cap, d = e->cap;
        if (grow((void **)&e->parent, &c, idx + 1, sizeof(int))
            || grow((void **)&e->robj, &d, idx + 1, sizeof(int))
            || grow((void **)&e->start, &e->cap, idx + 1, sizeof(int64_t)))
            return -HLT_NOMEM;
    }
    int w = e->width[r], dead = r < 0 ? 0 : e->spare[r];
    if (dead) {
        e->spare[r] = e->robj[dead];
        e->start[idx] = e->start[dead];
    } else {
        if (grow((void **)&e->cells, &e->capcells, e->ncells + w, sizeof(int)))
            return -HLT_NOMEM;
        e->start[idx] = e->ncells;
        e->ncells += w;
    }
    memset(e->cells + e->start[idx], 0, (size_t)w * sizeof(int));
    e->parent[idx] = idx;
    e->robj[idx] = r;
    e->n++;
    return idx;
}

static int find(const engine *e, int a)
{
    int *parent = e->parent, root = a;
    while (parent[root] != root)
        root = parent[root];
    while (parent[a] != root) {
        int next = parent[a];
        parent[a] = root;
        a = next;
    }
    return root;
}

static int push(engine *e, int a, int b)
{
    if (grow((void **)&e->stack, &e->capstack, e->sp + 2, sizeof(int)))
        return -HLT_NOMEM;
    e->stack[e->sp++] = a;
    e->stack[e->sp++] = b;
    return 0;
}

/* union the classes of a and b and every coincidence that follows */
static int merge(engine *e, int a, int b)
{
    e->sp = 0;
    if (push(e, a, b))
        return HLT_NOMEM;
    while (e->sp) {
        b = find(e, e->stack[--e->sp]);
        a = find(e, e->stack[--e->sp]);
        if (a == b)
            continue;
        if (b < a) {
            int t = a;
            a = b;
            b = t;
        }
        int m = e->robj[a];
        if (m != e->robj[b])
            return HLT_MISTYPED;
        e->parent[b] = a;
        int *ra = e->cells + e->start[a], *rb = e->cells + e->start[b];
        for (int x = 0, w = e->width[m]; x < w; x++) {
            int t = rb[x], s = ra[x];
            if (!t)
                continue;
            if (!s)
                ra[x] = t;
            else if (s != t && push(e, s, t))
                return HLT_NOMEM;
        }
        e->robj[b] = e->spare[m];
        e->spare[m] = b;
    }
    return HLT_COMPLETE;
}

/* follow w from the live node *a at letter *i as far as it is defined */
static void walk(const engine *e, int *a, int *i, const int *w, int len)
{
    for (; *i < len; ++*i) {
        int *entry = e->cells + e->start[*a] + w[*i];
        if (!*entry)
            return;
        *a = *entry = find(e, *entry);
    }
}

/* make u = v hold at the live node idx: 0, 1 when idx was merged into an
 * earlier node, or -code */
static int relation(engine *e, int idx, const int *u, int lu, const int *v, int lv)
{
    int a = idx, b = idx, i = 0, j = 0;
    walk(e, &a, &i, u, lu);
    walk(e, &b, &j, v, lv);
    for (;;) {
        if (i == lu) {
            if (j == lv) {
                if (a == b)
                    return 0;
                int rc = merge(e, a, b);
                return rc ? -rc : e->parent[idx] != idx;
            }
            if (j == lv - 1) {
                e->cells[e->start[b] + v[j]] = a;
                return 0;
            }
        } else if (j == lv && i == lu - 1) {
            e->cells[e->start[a] + u[i]] = b;
            return 0;
        }
        int node = i < lu ? a : b, gen = i < lu ? u[i] : v[j];
        int fresh = new_node(e, e->target[e->col0[e->robj[node]] + gen]);
        if (fresh < 0)
            return fresh;
        e->cells[e->start[node] + gen] = fresh;
        if (i < lu && a == node && u[i] == gen)
            a = fresh, i++;
        if (j < lv && b == node && v[j] == gen)
            b = fresh, j++;
    }
}

/* number the distinct prefixes of each object's relation sides: prefix
 * k of object m and a column x, which is one of the object the prefix
 * ends at, key its one-letter extension in a hash table */
static int prefixes(engine *e, int nobj, const int *rel_start, const int *rel)
{
    int64_t size = (int64_t)rel_start[nobj] + nobj;   /* bounds prefixes and relations */
    int np = 0, nr = 0, most = 0, w = 1, bits = 1;
    for (int m = 0; m < nobj; m++)
        w = e->width[m] > w ? e->width[m] : w;
    while ((int64_t)1 << bits < 2 * size)
        bits++;
    int64_t mask = ((int64_t)1 << bits) - 1, *key = malloc(((size_t)mask + 1) * sizeof(int64_t));
    int *child = malloc(((size_t)mask + 1) * sizeof(int));
    /* one block, freed through pstart */
    e->pstart = malloc((2 * (size_t)nobj + 2 + 4 * (size_t)size) * sizeof(int));
    if (!key || !child || !e->pstart) {
        free(key);
        free(child);
        return HLT_NOMEM;
    }
    memset(key, 0xff, ((size_t)mask + 1) * sizeof(int64_t));
    e->rfirst = e->pstart + nobj + 1;
    e->pparent = e->rfirst + nobj + 1;
    e->pletter = e->pparent + size;
    e->uend = e->pletter + size;
    e->vend = e->uend + size;
    for (int m = 0; m < nobj; m++) {
        const int *r = rel + rel_start[m];
        int count = 1;
        e->pstart[m] = np;
        e->rfirst[m] = nr;
        for (; r < rel + rel_start[m + 1]; r += 2 + r[0] + r[1], nr++) {
            for (int side = 0; side < 2; side++) {
                const int *word = r + 2 + (side ? r[0] : 0);
                int k = 0;
                for (int x = 0; x < r[side]; x++) {
                    int64_t at = (int64_t)(np + k) * w + word[x];
                    uint64_t h = ((uint64_t)at * 0x9E3779B97F4A7C15u) >> (64 - bits);
                    while (key[h] != -1 && key[h] != at)
                        h = (h + 1) & mask;
                    if (key[h] == -1) {
                        key[h] = at;
                        child[h] = count;
                        e->pparent[np + count] = k;
                        e->pletter[np + count++] = word[x];
                    }
                    k = child[h];
                }
                (side ? e->vend : e->uend)[nr] = k;
            }
        }
        np += count;
        most = count > most ? count : most;
    }
    free(key);
    free(child);
    e->pstart[nobj] = np;
    e->rfirst[nobj] = nr;
    e->ends = malloc((size_t)most * sizeof(int));
    return e->ends ? HLT_COMPLETE : HLT_NOMEM;
}

static int enumerate(engine *e, const int *rel_start, const int *rel, int root)
{
    int rc = new_node(e, -1);   /* node 0, with no entries */
    if (rc < 0)
        return -rc;
    if ((rc = new_node(e, root)) < 0)
        return -rc;
    for (int idx = 1; idx < e->n; idx++) {
        if (e->parent[idx] != idx)
            continue;
        int m = e->robj[idx], merged = 0, *ends = e->ends;
        const int *pparent = e->pparent + e->pstart[m], *pletter = e->pletter + e->pstart[m];
        ends[0] = idx;
        for (int k = 1, count = e->pstart[m + 1] - e->pstart[m]; k < count; k++) {
            int from = ends[pparent[k]], t = from ? e->cells[e->start[from] + pletter[k]] : 0;
            ends[k] = t ? find(e, t) : 0;
        }
        const int *r = rel + rel_start[m];
        for (int q = e->rfirst[m]; q < e->rfirst[m + 1]; r += 2 + r[0] + r[1], q++) {
            if (ends[e->uend[q]] == ends[e->vend[q]] && ends[e->uend[q]])
                continue;
            if ((rc = relation(e, idx, r + 2, r[0], r + 2 + r[0], r[1])) < 0)
                return -rc;
            if ((merged = rc))
                break;
        }
        if (merged)
            continue;
        for (int col = 0, w = e->width[m]; col < w; col++) {
            if (e->cells[e->start[idx] + col])
                continue;
            int fresh = new_node(e, e->target[e->col0[m] + col]);
            if (fresh < 0)
                return -fresh;
            e->cells[e->start[idx] + col] = fresh;
        }
    }
    return HLT_COMPLETE;
}

/* Number the live nodes in creation order, move their objects and row
 * starts down to their class numbers, and write their rows in class
 * numbers.  A merged node's parent is an earlier node, so one pass
 * numbers every node. */
static int compress(engine *e)
{
    int *parent = e->parent, kept = 0;
    for (int i = 1; i < e->n; i++) {
        if (parent[i] == i) {
            parent[i] = kept;
            e->robj[kept] = e->robj[i];
            e->start[kept++] = e->start[i];
        } else {
            parent[i] = parent[parent[i]];
        }
    }
    for (int c = 0; c < kept; c++) {
        int *row = e->cells + e->start[c];
        for (int x = 0, w = e->width[e->robj[c]]; x < w; x++)
            row[x] = parent[row[x]];
    }
    return kept;
}

int hlt_run(int nobj, const int *width, const int *target, const int *rel_start,
            const int *rel, int root, int budget, int *nodes, int *classes,
            int **objects, int64_t **starts, int **cells)
{
    engine e = {0};
    /* col0[m]: object m's first column in target; node 0 is reserved,
     * with no entries, so width[-1] reads 0 */
    int *col0 = calloc(3 * (size_t)nobj + 2, sizeof(int)), *widths, rc;
    *objects = *cells = NULL;
    *starts = NULL;
    if (!col0)
        return HLT_NOMEM;
    widths = col0 + nobj + 1;
    e.spare = widths + nobj + 1;
    col0[0] = widths[0] = 0;
    for (int m = 0; m < nobj; m++) {
        col0[m + 1] = col0[m] + width[m];
        widths[m + 1] = width[m];
    }
    e.width = widths + 1;
    e.target = target;
    e.col0 = col0;
    e.budget = budget;
    rc = prefixes(&e, nobj, rel_start, rel);
    if (rc == HLT_COMPLETE)
        rc = enumerate(&e, rel_start, rel, root);
    *nodes = e.n - 1;
    if (rc == HLT_COMPLETE) {
        *classes = compress(&e);
        *objects = e.robj;
        *starts = e.start;
        *cells = e.cells;
        e.robj = e.cells = NULL;
        e.start = NULL;
    }
    free(col0);
    free(e.parent);
    free(e.robj);
    free(e.start);
    free(e.cells);
    free(e.stack);
    free(e.pstart);
    free(e.ends);
    return rc;
}

void hlt_free(void *p)
{
    free(p);
}
