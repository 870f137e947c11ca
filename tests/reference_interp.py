"""Frozen copy of the content tokenizer and the span interpreter that the
compiled content pass in ``pdf_ray.pdfcore.content`` and
``pdf_ray.pdfcore.interp`` replaced: a token generator feeding an
``if/elif`` chain over the operators.

It is the oracle of ``tests/test_interp_diff.py``: the compiled pass must
give the same spans, marks, fonts, images, final text state and errors as
this code. Do not edit it to follow the engine; nothing in ``pdf_ray``
imports it.
"""

from __future__ import annotations

import re

from pdf_ray.pdfcore.images import decode_image_pixels, encode_png, media_ref_for_pixels
from pdf_ray.pdfcore.lexer import SKIP, WHITESPACE, Lexer
from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Stream

# a real, else an int (the number pattern the engine's lexer had then)
NUMBER = re.compile(rb"[+-]?+(?:\d++\.\d*+|\.\d++)|[+-]?\d+")

# -- content tokenizer --------------------------------------------------

# operator token: alnum run possibly terminated (inclusively) by * ' " —
# or a lone quote char (src/content/mod.rs:83-99)
_OP_RUN = re.compile(rb"[A-Za-z0-9]*")

# An integer followed by ws + digits + ws + R and a delimiter goes to
# lex_object for the `n m R` indirect-reference quirk (src/lex.rs:473-494);
# `1 1 1 RG` stays on the NUMBER path, as no delimiter follows its R.
_REF_LOOKAHEAD = re.compile(
    rb"[\x00\x09\x0a\x0c\x0d\x20]+\d+[\x00\x09\x0a\x0c\x0d\x20]+R"
    rb"[\x00\x09\x0a\x0c\x0d\x20()<>\[\]{}/%]"
)

OPERATORS = frozenset(
    """b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f F
    f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN scn
    sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* y ' \"""".split()
)

OBJ = 0
OP = 1
INLINE = 2


def tokenize(buf: bytes):
    """Yield ``(OBJ, value)`` / ``(OP, name)`` / ``(INLINE, bytes)`` tokens.

    Hot path: this runs once per token of every content stream in the
    corpus, so the loop works on a local ``pos`` with regex matches and
    direct byte indexing, delegating to the full object lexer only for
    non-trivial objects."""
    lx = Lexer(buf)
    compat_depth = 0
    n = len(buf)
    pos = 0
    skip = SKIP.match
    num_match = NUMBER.match
    op_match = _OP_RUN.match
    ref_match = _REF_LOOKAHEAD.match
    while True:
        pos = skip(buf, pos).end()
        if pos >= n:
            return
        b = buf[pos]
        if b == 0x27 or b == 0x22 or 0x61 <= b <= 0x7A or 0x41 <= b <= 0x5A:
            if b == 0x27 or b == 0x22:  # ' "
                pos += 1
                s = chr(b)
            else:
                # alnum run; a following * ' " terminates inclusively.
                # NB: quotes inside a run also terminate it (e.g. `ab'`);
                # the regex stops at them and the check below consumes one.
                m = op_match(buf, pos)
                pos = m.end()
                nxt = buf[pos] if pos < n else None
                if nxt in (0x2A, 0x27, 0x22):  # * ' "
                    pos += 1
                    s = (m.group() + buf[pos - 1 : pos]).decode("latin-1")
                else:
                    s = m.group().decode("latin-1")
            if s == "true":
                yield (OBJ, True)
            elif s == "false":
                yield (OBJ, False)
            elif s == "null":
                yield (OBJ, NULL)
            elif s in OPERATORS:
                if s == "BX":
                    compat_depth += 1
                elif s == "EX":
                    compat_depth = max(0, compat_depth - 1)
                elif s == "ID":
                    # inline image data: one whitespace byte, then raw bytes
                    # until whitespace-delimited `EI` (PDF 32000-1 §8.9.7)
                    if pos < n and buf[pos] in WHITESPACE:
                        pos += 1
                    data_start = pos
                    i = data_start
                    while True:
                        i = buf.find(b"EI", i)
                        if i == -1:
                            raise PdfParseError("unterminated inline image")
                        before_ok = i == 0 or buf[i - 1] in WHITESPACE
                        after = buf[i + 2] if i + 2 < n else None
                        after_ok = after is None or after in WHITESPACE
                        if before_ok and after_ok:
                            break
                        i += 2
                    data_end = (
                        i - 1
                        if i > data_start and buf[i - 1] in WHITESPACE
                        else i
                    )
                    yield (OP, "ID")
                    yield (INLINE, buf[data_start:data_end])
                    pos = i + 2
                    yield (OP, "EI")
                    continue
                yield (OP, s)
            elif compat_depth > 0:
                continue
            else:
                raise PdfParseError(f"unknown content operator {s!r}")
        elif 0x2B <= b <= 0x39 and b != 0x2F and b != 0x2C:  # + - . 0-9
            m = num_match(buf, pos)
            if m is None:
                lx.pos = pos
                yield (OBJ, lx.lex_object())
                pos = lx.pos
                continue
            tok = m.group()
            if b"." in tok:
                pos = m.end()
                yield (OBJ, float(tok))
            elif ref_match(buf, m.end()) is not None:
                lx.pos = pos
                yield (OBJ, lx.lex_object())  # exact reference semantics
                pos = lx.pos
            else:
                pos = m.end()
                yield (OBJ, int(tok))
        else:
            lx.pos = pos
            yield (OBJ, lx.lex_object())
            pos = lx.pos


# -- interpreter ------------------------------------------------------

IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def mat_mul(m1, m2):
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        e1 * a2 + f1 * c2 + e2,
        e1 * b2 + f1 * d2 + f2,
    )


def translation(tx: float, ty: float):
    return (1.0, 0.0, 0.0, 1.0, tx, ty)


class TextState:
    """src/render/text_state.rs:5-124; horizontal_scaling stored as a
    fraction (Tz operand / 100)."""

    __slots__ = (
        "char_spacing",
        "word_spacing",
        "horizontal_scaling",
        "leading",
        "font_name",
        "font_size",
        "render_mode",
        "rise",
        "tm",
        "tlm",
    )

    def __init__(self):
        self.char_spacing = 0.0
        self.word_spacing = 0.0
        self.horizontal_scaling = 1.0
        self.leading = 0.0
        self.font_name = None
        self.font_size = 0.0
        self.render_mode = 0
        self.rise = 0.0
        self.tm = IDENTITY
        self.tlm = IDENTITY


# marked-content stack sentinel for a hidden optional-content scope
_OC_HIDDEN = ("__oc_hidden__", None)


class Interpreter:
    """One instance per document row; transient state only.

    ``font_cache`` is an optional shared cache (one per worker process in
    the Ray pipeline: ``stages.extract.FONT_CACHE``) mapping font-program
    hashes to parsed width tables — used only when ``compute_positions``
    is on, since glyph widths never affect span text.
    """

    def __init__(
        self,
        doc: Document,
        collect_images: bool = False,
        font_cache=None,
        compute_positions: bool = False,
        apply_tounicode: bool = False,
        apply_actual_text: bool = False,
        collect_mcids: bool = False,
        collect_fonts: bool = False,
        hidden_ocgs: frozenset | None = None,
    ):
        self.doc = doc
        self.collect_images = collect_images
        self.font_cache = font_cache
        self.compute_positions = compute_positions
        self.apply_tounicode = apply_tounicode
        # optional enrichment (OFF for parity): /ActualText property of a
        # marked-content scope REPLACES the text shown inside it (PDF
        # 32000-1 §14.9.4 — the reference only tracks the tag stack,
        # src/render/mod.rs:1486-1520)
        self.apply_actual_text = apply_actual_text
        # optional (OFF for parity): record, per emitted span, the page
        # index, innermost marked-content /MCID and whether any enclosing
        # scope is tagged /Artifact (PDF 32000-1 §14.6/14.8) — the inputs
        # for tagged-PDF logical structure + artifact stripping. The
        # reference captures none of this (tag stack only).
        self.collect_mcids = collect_mcids
        # optional (OFF for parity): record, per emitted span, the active
        # font's /BaseFont and the Tf size — layout-aware extraction
        # (heading detection etc.); mirrors the state the reference's
        # text_state.rs carries for rendering.
        self.collect_fonts = collect_fonts
        # optional (OFF for parity): set of hidden OCG Refs (pdfcore/ocg.py,
        # default config). When not None, content inside /OC marked scopes
        # and /OC-tagged XObjects whose group is hidden is SUPPRESSED — the
        # reference parses /OCProperties but never consults memberships
        # (src/optional_content.rs:1-197), so it leaks hidden layers.
        self.hidden_ocgs = hidden_ocgs
        self._oc_hidden = 0  # depth of enclosing hidden /OC scopes
        self.spans: list[tuple[str, str | None, str | None]] = []
        # parallels self.spans one-to-one while collect_mcids is on (only
        # valid if self.spans isn't mutated externally)
        self.span_marks: list[tuple[int, int, bool]] = []
        # parallels self.spans one-to-one while collect_fonts is on
        self.span_fonts: list[tuple[str | None, float]] = []
        self._cur_base_font: str | None = None
        self._page_idx = -1
        self.images: dict[str, bytes] = {}
        self._font_widths = None  # lazy per-Tf width lookup
        self._font_info = None  # FontInfo for unicode enrichment

    def _append_span(self, kind, text, ref) -> None:
        if self._oc_hidden:
            return  # inside a hidden optional-content scope
        self.spans.append((kind, text, ref))
        if self.collect_fonts:
            self.span_fonts.append(
                (self._cur_base_font, self.ts.font_size or 0.0)
            )
        if self.collect_mcids:
            mcid, artifact = -1, False
            for entry in reversed(self.marked):  # innermost MCID wins
                if isinstance(entry, dict):  # ActualText scope
                    tag, props = entry.get("tag"), entry.get("props")
                else:
                    tag, props = entry
                if str(tag) == "Artifact":
                    artifact = True
                if mcid < 0 and isinstance(props, dict):
                    m = props.get("MCID")
                    if isinstance(m, int) and not isinstance(m, bool):
                        mcid = m
            self.span_marks.append((self._page_idx, mcid, artifact))

    # -- entry point ---------------------------------------------------------

    def run(self) -> list[tuple[str, str | None, str | None, int]]:
        for page in self.doc.pages:
            self._run_page(page)
        return [
            (kind, text, ref, order)
            for order, (kind, text, ref) in enumerate(self.spans)
        ]

    def _run_page(self, page: Page) -> None:
        content = self.doc.page_content(page)
        resources = page.resources if isinstance(page.resources, dict) else {}
        self._page_idx += 1
        self.ts = TextState()
        self.gs_stack: list[tuple] = []
        self.ctm = IDENTITY
        self.stack: list = []
        self.marked: list = []
        self._exec(content, resources)

    # -- operand helpers -----------------------------------------------------

    def _pop(self):
        if not self.stack:
            raise PdfParseError("operand stack underflow")
        return self.stack.pop()

    def _pop_number(self) -> float:
        v = self._pop()
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise PdfParseError(f"expected number, got {v!r}")
        return float(v)

    def _pop_name(self) -> str:
        v = self._pop()
        if not isinstance(v, Name):
            raise PdfParseError(f"expected name, got {v!r}")
        return str(v)

    def _pop_string(self) -> str:
        v = self._pop()
        if not isinstance(v, str) or isinstance(v, Name):
            raise PdfParseError(f"expected string, got {v!r}")
        return v

    def _pop_n(self, n: int) -> None:
        for _ in range(n):
            self._pop()

    # -- text ----------------------------------------------------------------

    def _emit_text(self, text: str) -> None:
        if self.apply_actual_text:
            scope = self._actual_text_scope()
            if scope is not None:
                # replacement text is emitted ONCE, at the position of the
                # first show inside the scope; further shows are suppressed
                if not scope["emitted"]:
                    scope["emitted"] = True
                    self._append_span("text", scope["text"], None)
                return
        if self.apply_tounicode and self._font_info is not None:
            from pdf_ray.pdfcore.fonts import unicode_text

            text = unicode_text(self._font_info, text)
        self._append_span("text", text, None)

    def _actual_text_scope(self):
        """OUTERMOST enclosing marked-content entry carrying /ActualText —
        an outer replacement covers everything inside it, including nested
        /ActualText scopes (PDF 32000-1 §14.9.4)."""
        for entry in self.marked:
            if isinstance(entry, dict):
                return entry
        return None

    def _advance_after(self, s: str) -> None:
        """Advance Tm by glyph widths (src/render/mod.rs:1305-1316).
        Optional: affects positions only, never span text/order."""
        if not self.compute_positions:
            return
        widths = self._font_widths
        for ch in s:
            w = widths(ord(ch)) if widths else 0.5
            dx = w * self.ts.font_size + self.ts.char_spacing
            if ch == " ":
                dx += self.ts.word_spacing
            dx *= self.ts.horizontal_scaling
            self.ts.tm = mat_mul(translation(dx, 0.0), self.ts.tm)

    def _show(self, elements: list) -> None:
        """Shared Tj/TJ core (src/render/mod.rs:1118-1320): strings emit,
        numbers translate Tm by (-n * Tfs / 1000) * Th in x."""
        parts: list[str] = []
        saw_string = False
        for el in elements:
            if isinstance(el, Name):
                raise PdfParseError("name in show array")
            if isinstance(el, str):
                parts.append(el)
                saw_string = True
                self._advance_after(el)
            elif isinstance(el, bool):
                raise PdfParseError("bool in show array")
            elif isinstance(el, (int, float)):
                dx = (
                    (-float(el) * self.ts.font_size)
                    / 1000.0
                    * self.ts.horizontal_scaling
                )
                self.ts.tm = mat_mul(translation(dx, 0.0), self.ts.tm)
            else:
                raise PdfParseError(f"bad TJ element {el!r}")
        if saw_string:
            self._emit_text("".join(parts))

    def _next_line(self) -> None:
        """T* == `0 -TL Td` (src/render/mod.rs:725-731)."""
        m = mat_mul(translation(0.0, -self.ts.leading), self.ts.tlm)
        self.ts.tm = m
        self.ts.tlm = m

    def _set_font(self, name: str, size: float, resources: dict) -> None:
        fonts = self.doc.resolve(resources.get("Font", NULL))
        if not isinstance(fonts, dict) or name not in fonts:
            raise PdfParseError(f"font {name!r} not in resources")
        self.ts.font_name = name
        self.ts.font_size = size
        if self.collect_fonts:
            fd = self.doc.resolve_dict(fonts[name])
            bf = self.doc.resolve(fd.get("BaseFont"))
            self._cur_base_font = str(bf) if bf is not None else name
        self._font_widths = None
        if self.compute_positions:
            from pdf_ray.pdfcore.fonts import width_function

            self._font_widths = width_function(
                self.doc, self.doc.resolve_dict(fonts[name]), self.font_cache
            )
        if self.apply_tounicode:
            from pdf_ray.pdfcore.fonts import load_font

            self._font_info = load_font(
                self.doc, self.doc.resolve_dict(fonts[name]), self.font_cache
            )

    # -- xobjects ------------------------------------------------------------

    def _do_xobject(self, name: str, resources: dict) -> None:
        xobjects = self.doc.resolve(resources.get("XObject", NULL))
        if not isinstance(xobjects, dict) or name not in xobjects:
            raise PdfParseError(f"xobject {name!r} not in resources")
        xo = self.doc.resolve_stream(xobjects[name])
        if self.hidden_ocgs is not None and "OC" in xo.dict:
            from pdf_ray.pdfcore.ocg import oc_is_hidden

            if oc_is_hidden(self.doc, xo.dict["OC"], self.hidden_ocgs):
                return  # XObject belongs to a hidden optional-content group
        subtype = self.doc.resolve(xo.dict.get("Subtype", NULL))
        if subtype == Name("Image"):
            self._emit_image(xo)
        elif subtype == Name("Form"):
            self._run_form(xo, resources)
        else:
            raise PdfParseError(f"unsupported xobject subtype {subtype!r}")

    def _emit_image(self, stream: Stream) -> None:
        w, h, rgb = decode_image_pixels(stream, self.doc.resolve)
        ref = media_ref_for_pixels(w, h, rgb)
        if self.collect_images and ref not in self.images:
            self.images[ref] = encode_png(w, h, rgb)
        self._append_span("image", None, ref)

    def _run_form(self, form: Stream, outer_resources: dict) -> None:
        """src/render/mod.rs:178-202: push gs, apply form Matrix, swap
        resources, interpret, restore."""
        content = self.doc.decoded(form)
        form_res = self.doc.resolve(form.dict.get("Resources", NULL))
        resources = form_res if isinstance(form_res, dict) else outer_resources
        matrix = self.doc.resolve(form.dict.get("Matrix", NULL))
        self._push_gs()
        if isinstance(matrix, list) and len(matrix) == 6:
            self.ctm = mat_mul(tuple(float(x) for x in matrix), self.ctm)
        self._exec(content, resources)
        self._restore_gs()

    def _push_gs(self) -> None:
        self.gs_stack.append(self.ctm)

    def _restore_gs(self) -> None:
        if self.gs_stack:
            self.ctm = self.gs_stack.pop()

    # -- main loop -----------------------------------------------------------

    def _exec(self, content: bytes, resources: dict) -> None:
        ts = self.ts
        inline_dict: list = []
        for kind, val in tokenize(content):
            if kind == OBJ:
                self.stack.append(val)
                continue
            if kind == INLINE:
                self._emit_inline_image(inline_dict, val)
                continue
            op = val
            if op == "Tj":
                self._show([self._pop_string()])
            elif op == "TJ":
                arr = self._pop()
                if not isinstance(arr, list):
                    raise PdfParseError("TJ expects an array")
                self._show(arr)
            elif op == "'":
                s = self._pop_string()
                self._next_line()
                self._show([s])
            elif op == '"':
                s = self._pop_string()
                ac = self._pop_number()
                aw = self._pop_number()
                ts.word_spacing = aw
                ts.char_spacing = ac
                self._next_line()
                self._show([s])
            elif op == "BT":
                ts.tm = IDENTITY
                ts.tlm = IDENTITY
            elif op == "ET":
                ts.tm = IDENTITY
                ts.tlm = IDENTITY
            elif op == "Tf":
                size = self._pop_number()
                name = self._pop_name()
                self._set_font(name, size, resources)
            elif op == "Td":
                ty = self._pop_number()
                tx = self._pop_number()
                m = mat_mul(translation(tx, ty), ts.tlm)
                ts.tm = m
                ts.tlm = m
            elif op == "TD":
                ty = self._pop_number()
                tx = self._pop_number()
                ts.leading = -ty
                m = mat_mul(translation(tx, ty), ts.tlm)
                ts.tm = m
                ts.tlm = m
            elif op == "Tm":
                f = self._pop_number()
                e = self._pop_number()
                d = self._pop_number()
                c = self._pop_number()
                b = self._pop_number()
                a = self._pop_number()
                ts.tm = (a, b, c, d, e, f)
                ts.tlm = ts.tm
            elif op == "T*":
                self._next_line()
            elif op == "TL":
                ts.leading = self._pop_number()
            elif op == "Tc":
                ts.char_spacing = self._pop_number()
            elif op == "Tw":
                ts.word_spacing = self._pop_number()
            elif op == "Tz":
                ts.horizontal_scaling = self._pop_number() / 100.0
            elif op == "Ts":
                ts.rise = self._pop_number()
            elif op == "Tr":
                ts.render_mode = int(self._pop_number())
            elif op == "Do":
                self._do_xobject(self._pop_name(), resources)
            elif op == "q":
                self._push_gs()
            elif op == "Q":
                self._restore_gs()
            elif op == "cm":
                f = self._pop_number()
                e = self._pop_number()
                d = self._pop_number()
                c = self._pop_number()
                b = self._pop_number()
                a = self._pop_number()
                self.ctm = mat_mul((a, b, c, d, e, f), self.ctm)
            elif op == "BMC":
                self.marked.append((self._pop_name(), None))
            elif op == "MP":
                self._pop_name()  # point operator: no scope, no EMC
            elif op == "DP":
                self._pop()  # properties
                self._pop_name()  # point operator: no scope, no EMC
            elif op == "BDC":
                props = self._pop()
                tag = self._pop_name()
                if self.hidden_ocgs is not None and str(tag) == "OC":
                    from pdf_ray.pdfcore.ocg import oc_is_hidden

                    raw = props
                    if isinstance(props, Name):  # /Properties resource name
                        props_res = self.doc.resolve(
                            resources.get("Properties", NULL)
                        )
                        raw = (
                            props_res.get(str(props), NULL)
                            if isinstance(props_res, dict)
                            else NULL
                        )
                    if oc_is_hidden(self.doc, raw, self.hidden_ocgs):
                        self.marked.append(_OC_HIDDEN)
                        self._oc_hidden += 1
                        continue
                if self.apply_actual_text or self.collect_mcids:
                    if isinstance(props, Name):  # /Properties resource ref
                        props_res = self.doc.resolve(
                            resources.get("Properties", NULL)
                        )
                        pdict = (
                            self.doc.resolve(props_res.get(str(props), NULL))
                            if isinstance(props_res, dict)
                            else NULL
                        )
                    else:
                        pdict = props
                    at = (
                        pdict.get("ActualText")
                        if isinstance(pdict, dict)
                        else None
                    )
                    if self.apply_actual_text and isinstance(at, str):
                        self.marked.append(
                            {
                                "text": at,
                                "emitted": False,
                                "tag": tag,
                                "props": pdict if isinstance(pdict, dict) else None,
                            }
                        )
                        continue
                    self.marked.append((tag, pdict))
                    continue
                self.marked.append((tag, props))
            elif op == "EMC":
                if self.marked:
                    entry = self.marked.pop()
                    if entry is _OC_HIDDEN:
                        self._oc_hidden -= 1
                        continue
                    # scope closed without any show inside: the
                    # replacement text still IS the scope's content —
                    # unless an OUTER ActualText scope encloses it, in
                    # which case the outer replacement swallows it
                    if isinstance(entry, dict) and not entry["emitted"]:
                        outer = self._actual_text_scope()
                        if outer is None:
                            self._append_span("text", entry["text"], None)
                        elif not outer["emitted"]:
                            outer["emitted"] = True
                            self._append_span("text", outer["text"], None)
            elif op == "BI":
                pass  # key/value objects accumulate on the stack until ID
            elif op == "ID":
                inline_dict = self._collect_inline_dict()
            elif op == "EI":
                pass  # image itself handled via the INLINE token
            elif op in _STATE_ONLY:
                arity = _STATE_ONLY[op]
                if arity >= 0:
                    self._pop_n(arity)
                else:
                    self.stack.clear()  # SC/SCN/sc/scn: variable arity
            else:
                raise PdfParseError(f"unhandled operator {op!r}")

    def _collect_inline_dict(self) -> list:
        """BI pushes key/value objects until ID; they accumulate on the
        operand stack — drain them here."""
        d = list(self.stack)
        self.stack.clear()
        return d

    def _emit_inline_image(self, kv: list, data: bytes) -> None:
        if len(kv) % 2 != 0:
            raise PdfParseError("odd inline image dict")
        d = {}
        for i in range(0, len(kv), 2):
            d[str(kv[i])] = kv[i + 1]
        self._emit_image(Stream(d, data))


# state-only operators -> operand arity (consume, emit nothing);
# -1 = variable (clear the stack). src/render/mod.rs:300-1035.
_STATE_ONLY = {
    "m": 2, "l": 2, "c": 6, "v": 4, "y": 4, "re": 4, "h": 0,
    "f": 0, "F": 0, "f*": 0, "B": 0, "B*": 0, "b": 0, "b*": 0,
    "s": 0, "S": 0, "n": 0, "W": 0, "W*": 0,
    "w": 1, "J": 1, "j": 1, "M": 1, "d": 2, "i": 1, "ri": 1, "gs": 1,
    "G": 1, "g": 1, "RG": 3, "rg": 3, "K": 4, "k": 4,
    "CS": 1, "cs": 1, "SC": -1, "sc": -1, "SCN": -1, "scn": -1,
    "sh": 1, "d0": 2, "d1": 6, "BX": 0, "EX": 0,
}
