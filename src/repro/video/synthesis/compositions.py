"""Shot compositions: named camera setups the screenplay references.

A composition renders the *static* look of one camera setup plus its
*animated* elements (mouths move with ``t``).  Rendering is deterministic
given ``(seed, params, t)``: the static scenery re-renders identically on
every frame of a shot, while the generator adds per-frame camera jitter
and sensor noise on top.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.errors import VideoError
from repro.video.synthesis import actors, slides
from repro.video.synthesis.draw import fill_rect, new_canvas
from repro.video.synthesis.script import COMPOSITION_NAMES, ShotParams
from repro.video.synthesis.sets import render_set

Renderer = Callable[[np.ndarray, np.random.Generator, ShotParams, float], None]


def _person_look(index: int) -> tuple[tuple[float, float, float], tuple[float, float, float]]:
    skin = actors.SKIN_TONES[index % len(actors.SKIN_TONES)]
    shirt = actors.WARDROBE[index % len(actors.WARDROBE)]
    return skin, shirt


#: Scrubs worn by everyone in the operating room.
_SCRUBS = (0.25, 0.45, 0.30)


def _talking_head(
    set_name: str,
    cx: float,
    head_cy: float,
    head_ry: float,
    rate: float,
    facing: float = 0.0,
    person_b: bool = False,
    scrubs: bool = False,
) -> Renderer:
    """One person in front of a set, mouth moving ``rate`` cycles a shot while talking."""

    def render(canvas, rng, params: ShotParams, t: float) -> None:
        render_set(set_name, canvas, rng, params.variant)
        skin, shirt = _person_look(params.actor_b if person_b else params.actor)
        phase = t * rate if params.talking else 0.0
        actors.draw_person(
            canvas, cx, head_cy, head_ry, skin, _SCRUBS if scrubs else shirt,
            talking_phase=phase, facing=facing,
        )

    return render


def _slide_fullscreen(canvas, rng, params: ShotParams, t: float) -> None:
    """Full-screen presentation slide."""
    slides.draw_slide(canvas, rng, params.slide_id)
    del t


def _clipart_fullscreen(canvas, rng, params: ShotParams, t: float) -> None:
    """Full-screen anatomical clip-art diagram."""
    slides.draw_clipart(canvas, rng, params.variant)
    del t


def _sketch_fullscreen(canvas, rng, params: ShotParams, t: float) -> None:
    """Full-screen whiteboard sketch."""
    slides.draw_sketch(canvas, rng, params.variant)
    del t


def _black(canvas, rng, params: ShotParams, t: float) -> None:
    """Editing black frame."""
    slides.draw_black_frame(canvas)
    del rng, params, t


def _two_shot(canvas, rng, params: ShotParams, t: float) -> None:
    """Exam room, both conversation partners in a wide two-shot."""
    render_set("exam_room", canvas, rng, params.variant)
    skin_a, shirt_a = _person_look(params.actor)
    skin_b, shirt_b = _person_look(params.actor_b)
    phase = t * 6.0 if params.talking else 0.0
    actors.draw_person(canvas, 0.28, 0.46, 0.13, skin_a, shirt_a, talking_phase=phase, facing=0.25)
    actors.draw_person(canvas, 0.72, 0.46, 0.13, skin_b, shirt_b, talking_phase=0.0, facing=-0.25)


def _surgical_closeup(canvas, rng, params: ShotParams, t: float) -> None:
    """Operating room, incision close-up with skin and blood.

    The field position swings with the camera seed so different
    close-up angles of the same operation read as distinct shots.
    """
    render_set("operating_room", canvas, rng, params.variant)
    skin, _ = _person_look(params.actor)
    offset_y = float(rng.uniform(-0.12, 0.12))
    offset_x = float(rng.uniform(-0.15, 0.15))
    actors.draw_surgical_field(
        canvas, rng, skin, incision=True, coverage=params.coverage,
        center=(0.5 + offset_y, 0.5 + offset_x),
    )
    del t


def _surgical_wide(canvas, rng, params: ShotParams, t: float) -> None:
    """Operating room, wide: staff around the draped table, small field."""
    render_set("operating_room", canvas, rng, params.variant)
    skin, _ = _person_look(params.actor)
    # Draped table across the lower third.
    fill_rect(canvas, 0.55, 0.10, 0.70, 0.95, (0.16, 0.50, 0.52))
    # Surgeon and assistant in scrubs behind the table.
    actors.draw_person(canvas, 0.30, 0.40, 0.09, skin, _SCRUBS)
    actors.draw_person(canvas, 0.66, 0.42, 0.08, actors.SKIN_TONES[(params.actor + 1) % len(actors.SKIN_TONES)], _SCRUBS)
    # Exposed sterile window on the drape.
    actors.draw_surgical_field(
        canvas, rng, skin, incision=False, coverage=0.06, center=(0.62, 0.55)
    )
    del t


def _organ_still(canvas, rng, params: ShotParams, t: float) -> None:
    """Organ photograph on a dark drape."""
    actors.draw_organ(canvas, rng)
    del params, t


def _scan_display(canvas, rng, params: ShotParams, t: float) -> None:
    """Imaging lab with a nuclear-medicine scan on the monitor wall.

    The inset geometry and scan palette swing with ``variant`` so that
    successive scan reviews are distinct shots.
    """
    render_set("imaging_lab", canvas, rng, params.variant)
    inset = new_canvas(canvas.shape[0], canvas.shape[1])
    actors.draw_scan_image(
        inset,
        rng,
        hot_spots=2 + params.variant % 4,
        body_width=0.16 + 0.06 * (params.variant % 3),
        hot_color=actors.SCAN_PALETTES[params.variant % len(actors.SCAN_PALETTES)],
    )
    h, w = canvas.shape[:2]
    shift = 0.05 * (params.variant % 3) - 0.05
    y0, y1 = int((0.14 + shift) * h), int((0.80 + shift) * h)
    x0, x1 = int((0.18 - shift) * w), int((0.82 - shift) * w)
    canvas[y0:y1, x0:x1] = inset[y0:y1, x0:x1]
    del t


def _limb_exam(canvas, rng, params: ShotParams, t: float) -> None:
    """Dermatology close-up: an examined limb fills the frame."""
    render_set("exam_room", canvas, rng, params.variant)
    skin, _ = _person_look(params.actor)
    actors.draw_examined_limb(canvas, rng, skin, lesion=True)
    del t


def _surgical_zoom(canvas, rng, params: ShotParams, t: float) -> None:
    """Slow zoom into the surgical field over the shot's duration.

    Gradual motion like this is the classic false-positive source for
    naive shot detectors; the adaptive local threshold must ride the
    elevated-but-smooth differences without declaring cuts.
    """
    render_set("operating_room", canvas, rng, params.variant)
    skin, _ = _person_look(params.actor)
    coverage = params.coverage * (0.5 + 0.8 * t)  # zooming in
    actors.draw_surgical_field(
        canvas, rng, skin, incision=True, coverage=coverage, center=(0.5, 0.5)
    )


def _corridor_walk(canvas, rng, params: ShotParams, t: float) -> None:
    """Corridor establishing shot; a figure crosses the frame."""
    render_set("corridor", canvas, rng, params.variant)
    skin, shirt = _person_look(params.actor)
    cx = 0.2 + 0.6 * t
    actors.draw_person(canvas, cx, 0.50, 0.08, skin, shirt, talking_phase=0.0)


COMPOSITION_REGISTRY: dict[str, Renderer] = {
    # Lecture hall: the presenter in face close-up at the podium, and small on stage.
    "podium_speaker": _talking_head("lecture_hall", 0.42, 0.34, 0.27, 7.0),
    "podium_wide": _talking_head("lecture_hall", 0.30, 0.48, 0.10, 7.0),
    "slide_fullscreen": _slide_fullscreen,
    "clipart_fullscreen": _clipart_fullscreen,
    "sketch_fullscreen": _sketch_fullscreen,
    "black": _black,
    # Exam room: person A looking right, and the reverse shot on person B.
    "interview_a": _talking_head("exam_room", 0.38, 0.40, 0.25, 6.0, facing=0.2),
    "interview_b": _talking_head("exam_room", 0.60, 0.40, 0.25, 6.0, facing=-0.2, person_b=True),
    "two_shot": _two_shot,
    # Operating room: the same two cameras on the surgeon and the assistant, in scrubs.
    "surgeon_face_a": _talking_head("operating_room", 0.38, 0.40, 0.25, 6.0, facing=0.2, scrubs=True),
    "surgeon_face_b": _talking_head(
        "operating_room", 0.60, 0.40, 0.25, 6.0, facing=-0.2, person_b=True, scrubs=True
    ),
    "surgical_closeup": _surgical_closeup,
    "surgical_zoom": _surgical_zoom,
    "surgical_wide": _surgical_wide,
    "organ_still": _organ_still,
    "scan_display": _scan_display,
    "limb_exam": _limb_exam,
    "corridor_walk": _corridor_walk,
}
if set(COMPOSITION_REGISTRY) != COMPOSITION_NAMES:
    differ = sorted(COMPOSITION_NAMES ^ set(COMPOSITION_REGISTRY))
    raise VideoError(f"script.COMPOSITION_NAMES and the registry differ: {differ}")


def render_composition(
    name: str,
    height: int,
    width: int,
    seed: int,
    params: ShotParams,
    t: float,
) -> np.ndarray:
    """Render one frame of the named composition at shot-time ``t``.

    The ``seed`` fixes all static scenery; only ``t``-driven animation
    changes between frames of one shot.
    """
    try:
        renderer = COMPOSITION_REGISTRY[name]
    except KeyError:
        raise VideoError(
            f"unknown composition {name!r}; known: {sorted(COMPOSITION_REGISTRY)}"
        ) from None
    canvas = new_canvas(height, width)
    rng = np.random.default_rng(seed)
    renderer(canvas, rng, params, t)
    return canvas
