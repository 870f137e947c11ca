/* Scanner of the plain-token PDF grammar: objects (lexer.py) and content
 * statements (content.py), built as a C API extension module by
 * kernels.py.
 *
 * Plain tokens are framed and converted here: whitespace (NUL included)
 * and %-comments, #-free names, `N G R` references, reals and ints,
 * plain `(...)` strings, true/false/null, and arrays and dictionaries of
 * these, nested at most MAX_DEPTH deep. Every other form is handed to a
 * method of the Python Lexer at the byte where it starts:
 *
 *   _lex_rare(pos)   an object that is not plain, or end of input
 *   _lex_item(pos)   the same for an array item (and the unterminated
 *                    array error)
 *   _lex_key(pos)    a dictionary key that is not a plain name, and the
 *                    malformed-dictionary errors
 *   _lex_stream(d)   a stream this scanner does not cut (an indirect or
 *                    bad /Length, a bad EOL, no endstream), at .pos
 *   _too_deep()      nesting past MAX_DEPTH
 *   read_obj_prelude() an indirect object without `obj`
 *
 * Each method reads the form, sets the Lexer's .pos after it, or raises
 * the parse error; this file raises no parse error of its own. Every
 * read is bounds-checked against the buffer's length. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#ifndef PyInit_KERNEL
#define PyInit_KERNEL PyInit__scan
#endif

/* byte classes */
enum { WS = 1, DELIM = 2, DIGIT = 4, ALPHA = 8 };
static unsigned char cls[256];

#define IS(c, k) (cls[(unsigned char)(c)] & (k))

/* set by setup() */
static PyObject *Name, *Ref, *Stream, *Null, *LexerType;
static int max_depth = -1;
/* known operators: a uint32 key (length and up to three bytes) -> str */
#define OPS_SLOTS 512
static uint32_t op_keys[OPS_SLOTS];
static PyObject *op_names[OPS_SLOTS];

static PyObject *s_pos, *s_length, *s_lex_rare, *s_lex_item, *s_lex_key,
    *s_lex_stream, *s_too_deep, *s_read_obj_prelude;

/* -- one scan over a buffer ------------------------------------------------ */

typedef struct {
    const unsigned char *b;
    Py_ssize_t n;
    PyObject *buf;     /* the buffer object */
    PyObject *lx;      /* the Lexer for hand-offs (borrowed or owned) */
    PyObject *resolve; /* for a Lexer made on demand */
    int own_lx;
    Py_buffer view;
    int has_view;
} scan_t;

static int scan_open(scan_t *s, PyObject *buf, PyObject *lx, PyObject *resolve)
{
    memset(s, 0, sizeof(*s));
    s->buf = buf;
    s->lx = lx;
    s->resolve = resolve;
    if (PyBytes_CheckExact(buf)) {
        s->b = (const unsigned char *)PyBytes_AS_STRING(buf);
        s->n = PyBytes_GET_SIZE(buf);
        return 0;
    }
    if (PyObject_GetBuffer(buf, &s->view, PyBUF_SIMPLE) < 0)
        return -1;
    s->has_view = 1;
    s->b = (const unsigned char *)s->view.buf;
    s->n = s->view.len;
    return 0;
}

static void scan_close(scan_t *s)
{
    if (s->has_view)
        PyBuffer_Release(&s->view);
    if (s->own_lx)
        Py_DECREF(s->lx);
}

static Py_ssize_t clamp(const scan_t *s, Py_ssize_t p)
{
    return p < 0 ? 0 : p > s->n ? s->n : p;
}

static Py_ssize_t skip(const scan_t *s, Py_ssize_t p)
{
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n;
    for (;;) {
        while (p < n && IS(b[p], WS))
            p++;
        if (p >= n || b[p] != '%')
            return p;
        while (p < n && b[p] != '\r' && b[p] != '\n')
            p++;
    }
}

static Py_ssize_t digits_end(const scan_t *s, Py_ssize_t p)
{
    while (p < s->n && IS(s->b[p], DIGIT))
        p++;
    return p;
}

/* end of a name's byte run from p; the run is plain unless '#' ends it */
static Py_ssize_t name_end(const scan_t *s, Py_ssize_t p)
{
    while (p < s->n && !IS(s->b[p], WS | DELIM) && s->b[p] != '#')
        p++;
    return p;
}

static int starts(const scan_t *s, Py_ssize_t p, const char *tok, Py_ssize_t len)
{
    return p <= s->n - len && memcmp(s->b + p, tok, len) == 0;
}

/* `[+-]? D+ SKIP D+ SKIP R` followed by whitespace or a delimiter, from
 * p; returns the end (after R) or -1, with the two digit runs */
static Py_ssize_t ref_end(const scan_t *s, Py_ssize_t p, Py_ssize_t *n0, Py_ssize_t *n1,
                          Py_ssize_t *g0, Py_ssize_t *g1)
{
    if (p < s->n && (s->b[p] == '+' || s->b[p] == '-'))
        p++;
    *n0 = p;
    *n1 = digits_end(s, p);
    if (*n1 == p)
        return -1;
    *g0 = skip(s, *n1);
    *g1 = digits_end(s, *g0);
    if (*g1 == *g0)
        return -1;
    p = skip(s, *g1);
    if (p + 1 < s->n && s->b[p] == 'R' && IS(s->b[p + 1], WS | DELIM))
        return p + 1;
    return -1;
}

/* -- value conversion ------------------------------------------------------ */

/* int() of a sign and digit run, with int()'s digit limit and error */
static PyObject *to_int(const unsigned char *p, Py_ssize_t len)
{
    Py_ssize_t i = (len > 0 && (p[0] == '+' || p[0] == '-')) ? 1 : 0;
    if (len - i <= 18) {
        long long v = 0;
        for (Py_ssize_t j = i; j < len; j++)
            v = v * 10 + (p[j] - '0');
        return PyLong_FromLongLong(i && p[0] == '-' ? -v : v);
    }
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)p, len);
    if (bytes == NULL)
        return NULL;
    PyObject *v = PyObject_CallOneArg((PyObject *)&PyLong_Type, bytes);
    Py_DECREF(bytes);
    return v;
}

/* float() of a real's bytes: the same parser float() calls */
static PyObject *to_float(const unsigned char *p, Py_ssize_t len)
{
    char tmp[64];
    if (len < (Py_ssize_t)sizeof(tmp)) {
        memcpy(tmp, p, len);
        tmp[len] = 0;
        double d = PyOS_string_to_double(tmp, NULL, NULL);
        if (d == -1.0 && PyErr_Occurred())
            return NULL;
        return PyFloat_FromDouble(d);
    }
    PyObject *bytes = PyBytes_FromStringAndSize((const char *)p, len);
    if (bytes == NULL)
        return NULL;
    PyObject *v = PyFloat_FromString(bytes);
    Py_DECREF(bytes);
    return v;
}

static PyObject *make_name(const unsigned char *p, Py_ssize_t len)
{
    PyObject *str = PyUnicode_DecodeLatin1((const char *)p, len, NULL);
    if (str == NULL)
        return NULL;
    PyObject *v = PyObject_CallOneArg(Name, str);
    Py_DECREF(str);
    return v;
}

/* Ref from its two ints (steals both), as tuple.__new__(Ref, ...) */
static PyObject *make_ref(PyObject *num, PyObject *gen)
{
    if (num == NULL || gen == NULL) {
        Py_XDECREF(num);
        Py_XDECREF(gen);
        return NULL;
    }
    PyObject *r = ((PyTypeObject *)Ref)->tp_alloc((PyTypeObject *)Ref, 2);
    if (r == NULL) {
        Py_DECREF(num);
        Py_DECREF(gen);
        return NULL;
    }
    PyTuple_SET_ITEM(r, 0, num);
    PyTuple_SET_ITEM(r, 1, gen);
    return r;
}

static PyObject *slice(const scan_t *s, Py_ssize_t a, Py_ssize_t b)
{
    if (PyBytes_CheckExact(s->buf))
        return PyBytes_FromStringAndSize((const char *)s->b + a, b - a);
    return PySequence_GetSlice(s->buf, a, b);
}

/* -- hand-offs to the Lexer ------------------------------------------------- */

static PyObject *lexer(scan_t *s)
{
    if (s->lx == NULL) {
        s->lx = PyObject_CallFunctionObjArgs(LexerType, s->buf, s->resolve, NULL);
        if (s->lx == NULL)
            return NULL;
        s->own_lx = 1;
    }
    return s->lx;
}

static int read_pos(scan_t *s, Py_ssize_t *pp)
{
    PyObject *v = PyObject_GetAttr(s->lx, s_pos);
    if (v == NULL)
        return -1;
    Py_ssize_t p = PyLong_AsSsize_t(v);
    Py_DECREF(v);
    if (p == -1 && PyErr_Occurred())
        return -1;
    *pp = clamp(s, p);
    return 0;
}

static int write_pos(scan_t *s, Py_ssize_t p)
{
    PyObject *v = PyLong_FromSsize_t(p);
    if (v == NULL)
        return -1;
    int r = PyObject_SetAttr(s->lx, s_pos, v);
    Py_DECREF(v);
    return r;
}

/* the Lexer's `meth(arg)` (no argument if arg is NULL); *pp is its .pos
 * after the call */
static PyObject *hand_off(scan_t *s, PyObject *meth, PyObject *arg, Py_ssize_t *pp)
{
    if (lexer(s) == NULL)
        return NULL;
    PyObject *v = arg ? PyObject_CallMethodOneArg(s->lx, meth, arg)
                      : PyObject_CallMethodNoArgs(s->lx, meth);
    if (v != NULL && read_pos(s, pp) < 0)
        Py_CLEAR(v);
    return v;
}

static PyObject *hand_off_at(scan_t *s, PyObject *meth, Py_ssize_t p, Py_ssize_t *pp)
{
    PyObject *arg = PyLong_FromSsize_t(p);
    if (arg == NULL)
        return NULL;
    PyObject *v = hand_off(s, meth, arg, pp);
    Py_DECREF(arg);
    return v;
}

/* a hand-off that must raise (nesting past MAX_DEPTH) */
static PyObject *fail(scan_t *s, PyObject *meth, Py_ssize_t *pp)
{
    PyObject *v = hand_off(s, meth, NULL, pp);
    if (v != NULL) {
        Py_DECREF(v);
        PyErr_SetString(PyExc_SystemError, "scan: a failing hand-off returned");
    }
    return NULL;
}

/* -- objects ----------------------------------------------------------------- */

static PyObject *object(scan_t *s, Py_ssize_t *pp, int depth, PyObject *rare);

/* the entries after `<<` at *pp through `>>` and the whitespace after
 * it, for a dictionary that is the depth-th open array or dictionary */
static PyObject *dict_entries(scan_t *s, Py_ssize_t *pp, int depth)
{
    if (depth > max_depth)
        return fail(s, s_too_deep, pp);
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n, p = skip(s, *pp);
    PyObject *d = PyDict_New();
    if (d == NULL)
        return NULL;
    for (;;) {
        if (p + 1 < n && b[p] == '>' && b[p + 1] == '>') {
            *pp = skip(s, p + 2);
            return d;
        }
        PyObject *key;
        Py_ssize_t e;
        if (p < n && b[p] == '/' && ((e = name_end(s, p + 1)) >= n || b[e] != '#')) {
            key = PyUnicode_DecodeLatin1((const char *)b + p + 1, e - p - 1, NULL);
            p = e;
        } else {
            key = hand_off_at(s, s_lex_key, p, &p);
        }
        if (key == NULL)
            goto error;
        PyObject *v = object(s, &p, depth, s_lex_rare);
        if (v == NULL) {
            Py_DECREF(key);
            goto error;
        }
        int r = PyDict_SetItem(d, key, v);
        Py_DECREF(key);
        Py_DECREF(v);
        if (r < 0)
            goto error;
    }
error:
    Py_DECREF(d);
    return NULL;
}

static PyObject *array(scan_t *s, Py_ssize_t *pp, int depth)
{
    if (depth > max_depth)
        return fail(s, s_too_deep, pp);
    Py_ssize_t p = skip(s, *pp);
    PyObject *list = PyList_New(0);
    if (list == NULL)
        return NULL;
    for (;;) {
        if (p < s->n && s->b[p] == ']') {
            *pp = skip(s, p + 1);
            return list;
        }
        PyObject *v = object(s, &p, depth, s_lex_item);
        if (v == NULL || PyList_Append(list, v) < 0) {
            Py_XDECREF(v);
            Py_DECREF(list);
            return NULL;
        }
        Py_DECREF(v);
    }
}

/* the `stream` keyword at p after dictionary d: its EOL, a direct
 * /Length cut and `endstream`; anything else goes to _lex_stream */
static PyObject *stream(scan_t *s, PyObject *d, Py_ssize_t p, Py_ssize_t *pp)
{
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n, q = p + 6;
    if (q < n && b[q] == '\n')
        q += 1;
    else if (q < n && b[q] == '\r')
        q += (q + 1 < n && b[q + 1] == '\n') ? 2 : 1;
    else
        goto hand;
    PyObject *length = PyDict_GetItemWithError(d, s_length);
    if (length == NULL && PyErr_Occurred())
        return NULL;
    if (length != NULL && PyLong_CheckExact(length)) {
        int overflow;
        long long len = PyLong_AsLongLongAndOverflow(length, &overflow);
        if (len == -1 && PyErr_Occurred())
            return NULL;
        if (!overflow && len >= 0 && len <= n - q) {
            Py_ssize_t e = skip(s, q + (Py_ssize_t)len);
            if (starts(s, e, "endstream", 9)) {
                PyObject *raw = slice(s, q, q + (Py_ssize_t)len);
                if (raw == NULL)
                    return NULL;
                PyObject *v = PyObject_CallFunctionObjArgs(Stream, d, raw, NULL);
                Py_DECREF(raw);
                if (v != NULL)
                    *pp = skip(s, e + 9);
                return v;
            }
        }
    }
hand:
    if (lexer(s) == NULL || write_pos(s, p) < 0)
        return NULL;
    return hand_off(s, s_lex_stream, d, pp);
}

/* one object from *pp, with the whitespace and comments before and after
 * it; a form that is not plain goes to the Lexer's `rare` method */
static PyObject *object(scan_t *s, Py_ssize_t *pp, int depth, PyObject *rare)
{
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n, p = skip(s, *pp), e;
    PyObject *v;
    if (p >= n)
        return hand_off_at(s, rare, p, pp);
    switch (b[p]) {
    case '/':
        e = name_end(s, p + 1);
        if (e < n && b[e] == '#')
            return hand_off_at(s, rare, p, pp);
        v = make_name(b + p + 1, e - p - 1);
        break;
    case '(':
        e = p + 1;
        while (e < n && b[e] != '(' && b[e] != ')' && b[e] != '\\')
            e++;
        if (e >= n || b[e] != ')')
            return hand_off_at(s, rare, p, pp);
        v = PyUnicode_DecodeLatin1((const char *)b + p + 1, e - p - 1, NULL);
        e++;
        break;
    case '<': {
        if (p + 1 >= n || b[p + 1] != '<')
            return hand_off_at(s, rare, p, pp);
        Py_ssize_t q = p + 2;
        PyObject *d = dict_entries(s, &q, depth + 1);
        if (d == NULL)
            return NULL;
        if (starts(s, q, "stream", 6)) {
            v = stream(s, d, q, pp);
            Py_DECREF(d);
            return v;
        }
        *pp = q;
        return d;
    }
    case '[':
        *pp = p + 1;
        return array(s, pp, depth + 1);
    case 't':
        if (!starts(s, p, "true", 4))
            return hand_off_at(s, rare, p, pp);
        v = Py_NewRef(Py_True);
        e = p + 4;
        break;
    case 'f':
        if (!starts(s, p, "false", 5))
            return hand_off_at(s, rare, p, pp);
        v = Py_NewRef(Py_False);
        e = p + 5;
        break;
    case 'n':
        if (!starts(s, p, "null", 4))
            return hand_off_at(s, rare, p, pp);
        v = Py_NewRef(Null);
        e = p + 4;
        break;
    default: {
        if (!IS(b[p], DIGIT) && b[p] != '+' && b[p] != '-' && b[p] != '.')
            return hand_off_at(s, rare, p, pp);
        Py_ssize_t n0, n1, g0, g1;
        e = ref_end(s, p, &n0, &n1, &g0, &g1);
        if (e >= 0) {
            PyObject *num = to_int(b + n0, n1 - n0);
            v = make_ref(num, num ? to_int(b + g0, g1 - g0) : NULL);
            break;
        }
        Py_ssize_t q = p + (b[p] == '+' || b[p] == '-');
        e = digits_end(s, q);
        if (e > q && e < n && b[e] == '.') {
            e = digits_end(s, e + 1);
            v = to_float(b + p, e - p);
        } else if (e > q) {
            v = to_int(b + p, e - p);
        } else if (q + 1 < n && b[q] == '.' && IS(b[q + 1], DIGIT)) {
            e = digits_end(s, q + 1);
            v = to_float(b + p, e - p);
        } else {
            return hand_off_at(s, rare, p, pp);
        }
    }
    }
    if (v != NULL)
        *pp = skip(s, e);
    return v;
}

/* -- content statements -------------------------------------------------------- */

/* end of the plain content operand at p, or -1: a #-free name, a plain
 * string, a real, or an int of at most 300 digits that does not start
 * `N G R` (whitespace only between them). An `N G R` is a reference
 * (src/lex.rs:473-494) for the Lexer; `1 1 1 RG` stays plain, as no
 * delimiter follows its R. Longer digit runs go to the Lexer too, so a
 * raw int never overflows float() and int() refuses a run past its digit
 * limit where the reference lexer converts it. */
static Py_ssize_t operand_end(const scan_t *s, Py_ssize_t p)
{
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n, e;
    if (p >= n)
        return -1;
    switch (b[p]) {
    case '/':
        e = name_end(s, p + 1);
        return (e < n && b[e] == '#') ? -1 : e;
    case '(':
        e = p + 1;
        while (e < n && b[e] != '(' && b[e] != ')' && b[e] != '\\')
            e++;
        return (e < n && b[e] == ')') ? e + 1 : -1;
    }
    if (!IS(b[p], DIGIT) && b[p] != '+' && b[p] != '-' && b[p] != '.')
        return -1;
    Py_ssize_t q = p + (b[p] == '+' || b[p] == '-');
    Py_ssize_t d = digits_end(s, q);
    if (d > q && d < n && b[d] == '.')
        return digits_end(s, d + 1);
    if (d == q) {
        if (q + 1 < n && b[q] == '.' && IS(b[q + 1], DIGIT))
            return digits_end(s, q + 1);
        return -1;
    }
    if (d - q > 300)
        return -1;
    /* the `[ws]+\d+[ws]+R[ws|delim]` lookahead */
    e = d;
    if (e < n && IS(b[e], WS)) {
        while (e < n && IS(b[e], WS))
            e++;
        Py_ssize_t g = digits_end(s, e);
        if (g > e && g < n && IS(b[g], WS)) {
            while (g < n && IS(b[g], WS))
                g++;
            if (g + 1 < n && b[g] == 'R' && IS(b[g + 1], WS | DELIM))
                return -1;
        }
    }
    return d;
}

/* end of the operator at p, or p: an alnum run ended inclusively by one
 * of * ' ", or a lone quote */
static Py_ssize_t operator_end(const scan_t *s, Py_ssize_t p)
{
    const unsigned char *b = s->b;
    Py_ssize_t n = s->n;
    if (p >= n)
        return p;
    if (b[p] == '\'' || b[p] == '"')
        return p + 1;
    if (!IS(b[p], ALPHA))
        return p;
    Py_ssize_t e = p + 1;
    while (e < n && IS(b[e], ALPHA | DIGIT))
        e++;
    if (e < n && (b[e] == '*' || b[e] == '\'' || b[e] == '"'))
        e++;
    return e;
}

static uint32_t op_key(const unsigned char *p, Py_ssize_t len)
{
    uint32_t k = (uint32_t)len << 24;
    for (Py_ssize_t i = 0; i < len; i++)
        k |= (uint32_t)p[i] << (16 - 8 * i);
    return k;
}

static uint32_t op_slot(uint32_t k)
{
    return ((k * 2654435761u) >> 16) & (OPS_SLOTS - 1);
}

/* the known operator's name (borrowed), or NULL */
static PyObject *known_op(const unsigned char *p, Py_ssize_t len)
{
    if (len < 1 || len > 3)
        return NULL;
    uint32_t k = op_key(p, len);
    for (uint32_t i = op_slot(k);; i = (i + 1) & (OPS_SLOTS - 1)) {
        if (op_names[i] == NULL)
            return NULL;
        if (op_keys[i] == k)
            return op_names[i];
    }
}

/* statements(buf, pos) -> (batch, operands, op, pos)
 *
 * batch lists `(operands, name)` for the statements from pos that are a
 * run of plain operands (raw bytes) and a known operator, at most 1024
 * of them. Scanning stops at the first other statement: its plain
 * operands (a tuple) and op, the operator as a str (pos after it), or
 * None where the next item is not plain or the buffer ends (pos at that
 * item). operands is None when no such statement was reached: the batch
 * is full, or only whitespace is left. */
#define BATCH 1024

static PyObject *statements(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "statements(buf, pos)");
        return NULL;
    }
    Py_ssize_t p = PyLong_AsSsize_t(args[1]);
    if (p == -1 && PyErr_Occurred())
        return NULL;
    scan_t s;
    if (scan_open(&s, args[0], NULL, NULL) < 0)
        return NULL;
    p = clamp(&s, p);
    PyObject *batch = PyList_New(0), *ops = NULL, *result = NULL;
    Py_ssize_t nops = 0, cap = 0;
    PyObject **items = NULL;
    if (batch == NULL)
        goto done;
    for (int count = 0;; count++) {
        p = skip(&s, p);
        if (count == BATCH || p >= s.n) {
            result = Py_BuildValue("(OOOn)", batch, Py_None, Py_None, p);
            goto done;
        }
        Py_ssize_t e;
        while ((e = operand_end(&s, p)) >= 0) {
            if (nops == cap) {
                cap = cap ? 2 * cap : 16;
                PyObject **grown = PyMem_Realloc(items, cap * sizeof(*items));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    goto done;
                }
                items = grown;
            }
            items[nops] = PyBytes_FromStringAndSize((const char *)s.b + p, e - p);
            if (items[nops] == NULL)
                goto done;
            nops++;
            p = skip(&s, e);
        }
        ops = PyTuple_New(nops);
        if (ops == NULL)
            goto done;
        for (Py_ssize_t i = 0; i < nops; i++)
            PyTuple_SET_ITEM(ops, i, items[i]);
        nops = 0;
        e = operator_end(&s, p);
        PyObject *name = known_op(s.b + p, e - p);
        if (name == NULL) {
            if (e == p) {
                result = Py_BuildValue("(OOOn)", batch, ops, Py_None, p);
            } else {
                PyObject *op = PyUnicode_DecodeLatin1((const char *)s.b + p, e - p, NULL);
                if (op != NULL)
                    result = Py_BuildValue("(OONn)", batch, ops, op, e);
            }
            goto done;
        }
        PyObject *st = PyTuple_Pack(2, ops, name);
        Py_CLEAR(ops);
        if (st == NULL || PyList_Append(batch, st) < 0) {
            Py_XDECREF(st);
            goto done;
        }
        Py_DECREF(st);
        p = e;
    }
done:
    for (Py_ssize_t i = 0; i < nops; i++)
        Py_DECREF(items[i]);
    PyMem_Free(items);
    Py_XDECREF(ops);
    Py_XDECREF(batch);
    scan_close(&s);
    return result;
}

/* -- entry points ---------------------------------------------------------------- */

static int arg_pos(PyObject *arg, Py_ssize_t *p)
{
    *p = PyLong_AsSsize_t(arg);
    return (*p == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int ready(void)
{
    if (max_depth < 0) {
        PyErr_SetString(PyExc_RuntimeError, "scan: setup() was not called");
        return -1;
    }
    return 0;
}

/* object(lx, buf, pos): the object at pos, and entries(lx, buf, pos):
 * the dictionary whose entries start at pos (after `<<`) through `>>`;
 * each sets lx.pos after what it read */
static PyObject *lexer_entry(PyObject *const *args, Py_ssize_t nargs, int entries)
{
    Py_ssize_t p;
    scan_t s;
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "object/entries(lx, buf, pos)");
        return NULL;
    }
    if (ready() < 0 || arg_pos(args[2], &p) < 0 || scan_open(&s, args[1], args[0], NULL) < 0)
        return NULL;
    p = clamp(&s, p);
    PyObject *v = entries ? dict_entries(&s, &p, 1) : object(&s, &p, 0, s_lex_rare);
    if (v != NULL && write_pos(&s, p) < 0)
        Py_CLEAR(v);
    scan_close(&s);
    return v;
}

static PyObject *object_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return lexer_entry(args, nargs, 0);
}

static PyObject *entries_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    return lexer_entry(args, nargs, 1);
}

/* `N G obj` (either number may be missing) and the whitespace after it,
 * from p: the end, or ~(where `obj` was expected) */
static Py_ssize_t prelude(const scan_t *s, Py_ssize_t p)
{
    p = skip(s, digits_end(s, skip(s, digits_end(s, skip(s, p)))));
    return starts(s, p, "obj", 3) ? skip(s, p + 3) : ~p;
}

/* prelude(buf, pos) -> end of the prelude, or ~(where `obj` was expected) */
static PyObject *prelude_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t p;
    scan_t s;
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "prelude(buf, pos)");
        return NULL;
    }
    if (arg_pos(args[1], &p) < 0 || scan_open(&s, args[0], NULL, NULL) < 0)
        return NULL;
    p = prelude(&s, clamp(&s, p));
    scan_close(&s);
    return PyLong_FromSsize_t(p);
}

/* indirect(buf, pos, resolve=None): the object of the indirect object at
 * pos; a Lexer(buf, resolve) is made only for a hand-off */
static PyObject *indirect_entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t p, start;
    scan_t s;
    if (nargs < 2 || nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "indirect(buf, pos, resolve=None)");
        return NULL;
    }
    if (ready() < 0 || arg_pos(args[1], &p) < 0
        || scan_open(&s, args[0], NULL, nargs == 3 ? args[2] : Py_None) < 0)
        return NULL;
    start = clamp(&s, p);
    p = prelude(&s, start);
    PyObject *v = NULL;
    if (p < 0) {
        if (lexer(&s) != NULL && write_pos(&s, start) == 0)
            fail(&s, s_read_obj_prelude, &p);
    } else {
        v = object(&s, &p, 0, s_lex_rare);
    }
    scan_close(&s);
    return v;
}

/* setup(Lexer, Name, Ref, Stream, NULL, max_depth): the Python types and
 * values the scanner makes and hands off to, and the nesting limit */
static PyObject *setup(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError, "setup(Lexer, Name, Ref, Stream, NULL, max_depth)");
        return NULL;
    }
    long depth = PyLong_AsLong(args[5]);
    if (depth == -1 && PyErr_Occurred())
        return NULL;
    if (depth < 0 || depth > 10000 || !PyType_Check(args[2])
        || !PyType_IsSubtype((PyTypeObject *)args[2], &PyTuple_Type)) {
        PyErr_SetString(PyExc_ValueError, "setup: bad max_depth or Ref type");
        return NULL;
    }
    Py_XSETREF(LexerType, Py_NewRef(args[0]));
    Py_XSETREF(Name, Py_NewRef(args[1]));
    Py_XSETREF(Ref, Py_NewRef(args[2]));
    Py_XSETREF(Stream, Py_NewRef(args[3]));
    Py_XSETREF(Null, Py_NewRef(args[4]));
    max_depth = (int)depth;
    Py_RETURN_NONE;
}

/* operators({bytes: str}): the operators `statements` batches, each of
 * 1-3 bytes, with the name it yields */
static PyObject *operators(PyObject *self, PyObject *table)
{
    if (!PyDict_Check(table)) {
        PyErr_SetString(PyExc_TypeError, "operators({bytes: str})");
        return NULL;
    }
    for (int i = 0; i < OPS_SLOTS; i++) {
        op_keys[i] = 0;
        Py_CLEAR(op_names[i]);
    }
    PyObject *k, *v;
    Py_ssize_t it = 0, used = 0;
    while (PyDict_Next(table, &it, &k, &v)) {
        if (!PyBytes_Check(k) || PyBytes_GET_SIZE(k) < 1 || PyBytes_GET_SIZE(k) > 3
            || ++used > OPS_SLOTS / 2) {
            PyErr_SetString(PyExc_ValueError, "operators: each of 1-3 bytes, at most 256");
            return NULL;
        }
        uint32_t key = op_key((const unsigned char *)PyBytes_AS_STRING(k), PyBytes_GET_SIZE(k));
        uint32_t i = op_slot(key);
        while (op_names[i] != NULL && op_keys[i] != key)
            i = (i + 1) & (OPS_SLOTS - 1);
        op_keys[i] = key;
        Py_XSETREF(op_names[i], Py_NewRef(v));
    }
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"setup", (PyCFunction)(void (*)(void))setup, METH_FASTCALL, NULL},
    {"operators", operators, METH_O, NULL},
    {"object", (PyCFunction)(void (*)(void))object_entry, METH_FASTCALL, NULL},
    {"entries", (PyCFunction)(void (*)(void))entries_entry, METH_FASTCALL, NULL},
    {"indirect", (PyCFunction)(void (*)(void))indirect_entry, METH_FASTCALL, NULL},
    {"prelude", (PyCFunction)(void (*)(void))prelude_entry, METH_FASTCALL, NULL},
    {"statements", (PyCFunction)(void (*)(void))statements, METH_FASTCALL, NULL},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_scan", NULL, -1, methods};

PyMODINIT_FUNC PyInit_KERNEL(void)
{
    for (int c = 0; c < 256; c++) {
        cls[c] = 0;
        if (c == 0 || c == '\t' || c == '\n' || c == '\f' || c == '\r' || c == ' ')
            cls[c] |= WS;
        if (strchr("()<>[]{}/%", c) && c)
            cls[c] |= DELIM;
        if (c >= '0' && c <= '9')
            cls[c] |= DIGIT;
        if ((c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z'))
            cls[c] |= ALPHA;
    }
    const char *names[] = {"pos", "Length", "_lex_rare", "_lex_item", "_lex_key",
                           "_lex_stream", "_too_deep", "read_obj_prelude"};
    PyObject **slots[] = {&s_pos, &s_length, &s_lex_rare, &s_lex_item, &s_lex_key,
                          &s_lex_stream, &s_too_deep, &s_read_obj_prelude};
    for (int i = 0; i < 8; i++)
        if (*slots[i] == NULL && (*slots[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    return PyModule_Create(&module);
}
