"""Span-extracting content interpreter.

The reference's renderer loop (src/render/mod.rs:216-298) re-expressed to
emit interleaved spans instead of painting:

- text show ops (``Tj TJ ' "``) emit ``kind='text'`` spans whose text is the
  *string-lexer codepoint sequence* — the exact chars the reference iterates
  in draw_text (src/render/mod.rs:1273 ``s.chars()``); no ToUnicode or cmap
  remapping is applied (src/font/cmap.rs:5-10 captures but never interprets)
- one span per show operator; TJ kerning numbers adjust the text matrix
  (src/render/mod.rs:1255-1269) but do NOT break the logical run
- ``'`` = T* + Tj and ``"`` = set Tw,Tc + T* + Tj (reference todo!()s both,
  src/render/mod.rs:292 — implemented per spec here)
- ``Do`` with an Image XObject emits ``kind='image'`` with a content-hash
  media_ref; a Form XObject recurses with swapped resources + matrix
  (src/render/mod.rs:178-202,1389-1413) so span order follows operator order
- every other operator is consumed with correct stack arity but emits
  nothing (path/color/clip state machine, src/render/mod.rs:300-1035)
- span ``order`` is a 0-based per-document counter across pages in document
  order and across nested form invocations

One pass per content stream: ``content.statements`` matches each operator
statement whole, ``_exec`` pushes its operands and calls the operator's
handler from one table (``_OPS``), the way the reference's loop has one
``match`` arm per operator. Plain operands stay raw bytes on the stack
until a handler reads them, so operators whose operands no output reads
(path, colour, graphics state and, with ``compute_positions`` off, the
text matrix and text state) only check their types. ``compute_positions``
selects ``_POSITION_OPS``, the same table with the handlers that keep the
matrices.

Matrix conventions are textbook affine 6-tuples (a b c d e f); the
reference's translation-add quirk (src/data_structures/matrix.rs:36-38) is
deliberately not replicated — positions never affect span equality.
"""

from __future__ import annotations

# ``tokenize`` stays importable here: the traced benchmark run wraps
# ``interp.tokenize``, although the pass itself reads ``statements``
from .content import INLINE, statements, tokenize, value  # noqa: F401
from .document import Document, Page
from .images import decode_image_pixels, encode_png, media_ref_for_pixels
from .objects import NULL, Name, PdfParseError, Stream

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


# first bytes of the raw plain operands that are not numbers: / and (
_NOT_NUMBER = (0x2F, 0x28)

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
        self._inline_kv: list = []  # inline image dict entries, set by ID
        self._ops = _POSITION_OPS if compute_positions else _OPS

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
    # Plain operands sit on the stack as raw bytes (content.py) until read;
    # each helper checks the type and converts only what it returns.

    def _pop(self):
        try:
            return self.stack.pop()
        except IndexError:
            raise PdfParseError("operand stack underflow") from None

    def _pop_number(self) -> float:
        v = self._pop()
        if type(v) is bytes:
            if v[0] not in _NOT_NUMBER:
                f = float(v)
                return f if f or b"." in v else 0.0  # an int -0 is +0.0
        elif not isinstance(v, bool) and isinstance(v, (int, float)):
            return float(v)
        raise PdfParseError(f"expected number, got {value(v)!r}")

    def _check_numbers(self, n: int) -> None:
        """Pop ``n`` numbers with ``_pop_number``'s checks and errors, for
        an operator whose operands no output reads."""
        for _ in range(n):
            v = self._pop()
            if type(v) is bytes:
                if v[0] not in _NOT_NUMBER:
                    continue
            elif not isinstance(v, bool) and isinstance(v, (int, float)):
                float(v)  # an int past float's range raises here too
                continue
            raise PdfParseError(f"expected number, got {value(v)!r}")

    def _pop_name(self) -> str:
        v = self._pop()
        if type(v) is bytes:
            if v[0] == 0x2F:  # /
                return v[1:].decode("latin-1")
        elif isinstance(v, Name):
            return str(v)
        raise PdfParseError(f"expected name, got {value(v)!r}")

    def _pop_string(self) -> str:
        v = self._pop()
        if type(v) is bytes:
            if v[0] == 0x28:  # (
                return v[1:-1].decode("latin-1")
        elif isinstance(v, str) and not isinstance(v, Name):
            return v
        raise PdfParseError(f"expected string, got {value(v)!r}")

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
            from .fonts import unicode_text

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
            from .fonts import width_function

            self._font_widths = width_function(
                self.doc, self.doc.resolve_dict(fonts[name]), self.font_cache
            )
        if self.apply_tounicode:
            from .fonts import load_font

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
            from .ocg import oc_is_hidden

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
        """Run one content stream: push each statement's operands, then
        call its operator's handler from the table."""
        ops = self._ops
        stack = self.stack
        for operands, op in statements(content):
            stack += operands
            if op is not None:
                ops[op](self, resources)

    # -- operators -------------------------------------------------------------
    # One handler per operator, called as ``handler(self, resources)``
    # through ``_OPS``. The ``*_positions`` handlers keep the text and
    # graphics matrices; ``_POSITION_OPS`` swaps them in for
    # compute_positions. In ``_OPS`` their operators only check their
    # operands, as no output reads a matrix when positions are off.

    def _op_Tj(self, resources) -> None:
        self._emit_text(self._pop_string())

    def _op_Tj_positions(self, resources) -> None:
        s = self._pop_string()
        self._advance_after(s)
        self._emit_text(s)

    def _op_TJ(self, resources) -> None:
        arr = self._pop()
        if not isinstance(arr, list):
            raise PdfParseError("TJ expects an array")
        self._show(arr)

    def _op_quote_positions(self, resources) -> None:
        s = self._pop_string()
        self._next_line()
        self._advance_after(s)
        self._emit_text(s)

    def _op_dquote(self, resources) -> None:
        s = self._pop_string()
        self._check_numbers(2)  # ac, aw
        self._emit_text(s)

    def _op_dquote_positions(self, resources) -> None:
        s = self._pop_string()
        ac = self._pop_number()
        aw = self._pop_number()
        self.ts.word_spacing = aw
        self.ts.char_spacing = ac
        self._next_line()
        self._advance_after(s)
        self._emit_text(s)

    def _op_BT_positions(self, resources) -> None:  # also ET
        self.ts.tm = IDENTITY
        self.ts.tlm = IDENTITY

    def _op_Td_positions(self, resources) -> None:
        ty = self._pop_number()
        tx = self._pop_number()
        m = mat_mul(translation(tx, ty), self.ts.tlm)
        self.ts.tm = m
        self.ts.tlm = m

    def _op_TD_positions(self, resources) -> None:
        ty = self._pop_number()
        tx = self._pop_number()
        ts = self.ts
        ts.leading = -ty
        m = mat_mul(translation(tx, ty), ts.tlm)
        ts.tm = m
        ts.tlm = m

    def _op_Tm_positions(self, resources) -> None:
        f, e, d, c, b, a = (self._pop_number() for _ in range(6))
        self.ts.tm = (a, b, c, d, e, f)
        self.ts.tlm = self.ts.tm

    def _op_Tstar_positions(self, resources) -> None:
        self._next_line()

    def _op_cm_positions(self, resources) -> None:
        f, e, d, c, b, a = (self._pop_number() for _ in range(6))
        self.ctm = mat_mul((a, b, c, d, e, f), self.ctm)

    def _op_Tf(self, resources) -> None:
        size = self._pop_number()
        name = self._pop_name()
        self._set_font(name, size, resources)

    def _op_Tr(self, resources) -> None:
        self.ts.render_mode = int(self._pop_number())

    def _op_Do(self, resources) -> None:
        self._do_xobject(self._pop_name(), resources)

    def _op_q(self, resources) -> None:
        self._push_gs()

    def _op_Q(self, resources) -> None:
        self._restore_gs()

    def _op_BMC(self, resources) -> None:
        self.marked.append((self._pop_name(), None))

    def _op_MP(self, resources) -> None:
        self._pop_name()  # point operator: no scope, no EMC

    def _op_DP(self, resources) -> None:
        self._pop()  # properties
        self._pop_name()  # point operator: no scope, no EMC

    def _op_BDC(self, resources) -> None:
        props = value(self._pop())
        tag = self._pop_name()
        if self.hidden_ocgs is not None and str(tag) == "OC":
            from .ocg import oc_is_hidden

            raw = props
            if isinstance(props, Name):  # /Properties resource name
                props_res = self.doc.resolve(resources.get("Properties", NULL))
                raw = (
                    props_res.get(str(props), NULL)
                    if isinstance(props_res, dict)
                    else NULL
                )
            if oc_is_hidden(self.doc, raw, self.hidden_ocgs):
                self.marked.append(_OC_HIDDEN)
                self._oc_hidden += 1
                return
        if self.apply_actual_text or self.collect_mcids:
            if isinstance(props, Name):  # /Properties resource ref
                props_res = self.doc.resolve(resources.get("Properties", NULL))
                pdict = (
                    self.doc.resolve(props_res.get(str(props), NULL))
                    if isinstance(props_res, dict)
                    else NULL
                )
            else:
                pdict = props
            at = pdict.get("ActualText") if isinstance(pdict, dict) else None
            if self.apply_actual_text and isinstance(at, str):
                self.marked.append(
                    {
                        "text": at,
                        "emitted": False,
                        "tag": tag,
                        "props": pdict if isinstance(pdict, dict) else None,
                    }
                )
                return
            self.marked.append((tag, pdict))
            return
        self.marked.append((tag, props))

    def _op_EMC(self, resources) -> None:
        if not self.marked:
            return
        entry = self.marked.pop()
        if entry is _OC_HIDDEN:
            self._oc_hidden -= 1
            return
        # scope closed without any show inside: the replacement text still
        # IS the scope's content — unless an OUTER ActualText scope encloses
        # it, in which case the outer replacement swallows it
        if isinstance(entry, dict) and not entry["emitted"]:
            outer = self._actual_text_scope()
            if outer is None:
                self._append_span("text", entry["text"], None)
            elif not outer["emitted"]:
                outer["emitted"] = True
                self._append_span("text", outer["text"], None)

    def _op_ID(self, resources) -> None:
        """BI pushes key/value objects until ID; they accumulate on the
        operand stack — drain them for the image data that follows."""
        self._inline_kv = [value(v) for v in self.stack]
        self.stack.clear()

    def _op_inline_image(self, resources) -> None:
        data = self.stack.pop()
        kv = self._inline_kv
        if len(kv) % 2 != 0:
            raise PdfParseError("odd inline image dict")
        d = {}
        for i in range(0, len(kv), 2):
            d[str(kv[i])] = kv[i + 1]
        self._emit_image(Stream(d, data))


def _noop(self, resources) -> None:
    """An operator with no operands, or one whose effect no output reads."""


def _clear(self, resources) -> None:
    """SC/SCN/sc/scn: variable arity, so every operand goes."""
    self.stack.clear()


def _discard(n: int):
    """An operator that pops ``n`` operands of any type and emits nothing
    (path, colour and graphics state, src/render/mod.rs:300-1035)."""

    def op(self, resources) -> None:
        stack = self.stack
        if len(stack) < n:
            raise PdfParseError("operand stack underflow")
        del stack[len(stack) - n :]

    return op


def _text_state(attr: str, scale: float = 1.0):
    """A text-state operator (TL Tc Tw Tz Ts): its number, divided by
    ``scale``, becomes ``TextState.<attr>``."""

    def op(self, resources) -> None:
        setattr(self.ts, attr, self._pop_number() / scale)

    return op


def _numbers(n: int):
    """An operator whose ``n`` number operands no output reads: checked as
    ``_pop_number`` checks them, never converted."""

    def op(self, resources) -> None:
        self._check_numbers(n)

    return op


_I = Interpreter
# operator -> handler; INLINE is the inline image data after ID
_OPS = {
    "Tj": _I._op_Tj,
    "TJ": _I._op_TJ,
    "'": _I._op_Tj,  # T* then Tj; T* only moves the matrices
    '"': _I._op_dquote,
    "BT": _noop,
    "ET": _noop,
    "T*": _noop,
    "Td": _numbers(2),
    "TD": _numbers(2),
    "Tm": _numbers(6),
    "TL": _numbers(1),
    "Tc": _numbers(1),
    "Tw": _numbers(1),
    "Tz": _numbers(1),
    "Ts": _numbers(1),
    "cm": _numbers(6),
    "Tf": _I._op_Tf,
    "Tr": _I._op_Tr,
    "Do": _I._op_Do,
    "q": _I._op_q,
    "Q": _I._op_Q,
    "BMC": _I._op_BMC,
    "MP": _I._op_MP,
    "DP": _I._op_DP,
    "BDC": _I._op_BDC,
    "EMC": _I._op_EMC,
    "BI": _noop,  # key/value objects accumulate on the stack until ID
    "ID": _I._op_ID,
    INLINE: _I._op_inline_image,
    "EI": _noop,
    "BX": _noop,
    "EX": _noop,
    "SC": _clear,
    "sc": _clear,
    "SCN": _clear,
    "scn": _clear,
    **{
        op: _noop
        for op in ("h", "f", "F", "f*", "B", "B*", "b", "b*", "s", "S", "n", "W", "W*")
    },
    **{
        op: _discard(n)
        for op, n in {
            "m": 2, "l": 2, "c": 6, "v": 4, "y": 4, "re": 4,
            "w": 1, "J": 1, "j": 1, "M": 1, "d": 2, "i": 1, "ri": 1, "gs": 1,
            "G": 1, "g": 1, "RG": 3, "rg": 3, "K": 4, "k": 4,
            "CS": 1, "cs": 1, "sh": 1, "d0": 2, "d1": 6,
        }.items()
    },
}
# compute_positions: the same table with the matrix-keeping handlers
_POSITION_OPS = {
    **_OPS,
    "Tj": _I._op_Tj_positions,
    "'": _I._op_quote_positions,
    '"': _I._op_dquote_positions,
    "BT": _I._op_BT_positions,
    "ET": _I._op_BT_positions,
    "T*": _I._op_Tstar_positions,
    "Td": _I._op_Td_positions,
    "TD": _I._op_TD_positions,
    "Tm": _I._op_Tm_positions,
    "TL": _text_state("leading"),
    "Tc": _text_state("char_spacing"),
    "Tw": _text_state("word_spacing"),
    "Tz": _text_state("horizontal_scaling", 100.0),
    "Ts": _text_state("rise"),
    "cm": _I._op_cm_positions,
}


def extract_spans(
    pdf_bytes: bytes,
    collect_images: bool = False,
    font_cache=None,
    compute_positions: bool = False,
    apply_tounicode: bool = False,
):
    """Parse one PDF payload and return its interleaved span sequence.

    Returns ``(spans, images)`` where spans is a list of
    ``(kind, text, media_ref, order)`` tuples and images maps
    ``media_ref -> png_bytes`` (empty unless ``collect_images``).
    """
    doc = Document(pdf_bytes)
    interp = Interpreter(
        doc,
        collect_images=collect_images,
        font_cache=font_cache,
        compute_positions=compute_positions,
        apply_tounicode=apply_tounicode,
    )
    return interp.run(), interp.images
