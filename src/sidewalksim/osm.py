"""OpenStreetMap XML ingestion and sidewalk extraction.

Only `node`, `way`, `nd` and `tag` elements are interpreted; everything else
is ignored. Geographic coordinates project to local meters with an
equirectangular projection about a declared origin, adequate for extents of a
couple of kilometers.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyNetworkError, OsmParseError, ReferentialIntegrityError
from .walkmap import SIDEWALK_WIDTH_RANGE, SidewalkNetwork

EARTH_RADIUS_M = 6_371_000.0

# Ways whose highway tag is in this set, or that carry any sidewalk tag other
# than an explicit negative, count as pedestrian paths.
PEDESTRIAN_HIGHWAY_TAGS = frozenset({"footway", "path", "pedestrian"})
NEGATIVE_SIDEWALK_VALUES = frozenset({"no", "none"})


@dataclass
class Way:
    node_ids: list[int]
    tags: dict[str, str] = field(default_factory=dict)


@dataclass
class OsmDocument:
    nodes: dict[int, tuple[float, float]]  # id -> (lat, lon) degrees
    ways: dict[int, Way]


def _attr(elem: ET.Element, key: str) -> str:
    try:
        return elem.attrib[key]
    except KeyError:
        raise OsmParseError(f"OSM <{elem.tag}> element {elem.attrib} has no {key!r}") from None


def parse_osm(xml_text: str) -> OsmDocument:
    """Parse OSM XML into nodes and ways, validating way->node references."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise OsmParseError(f"malformed OSM XML at line {line}, column {col}: {exc.msg}") from exc

    nodes: dict[int, tuple[float, float]] = {}
    ways: dict[int, Way] = {}
    for elem in root:
        if elem.tag == "node":
            nid = int(_attr(elem, "id"))
            lat = float(_attr(elem, "lat"))
            lon = float(_attr(elem, "lon"))
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise OsmParseError(f"node {nid} has non-finite coordinates")
            nodes[nid] = (lat, lon)
        elif elem.tag == "way":
            wid = int(_attr(elem, "id"))
            refs = [int(_attr(nd, "ref")) for nd in elem.findall("nd")]
            tags = {_attr(t, "k"): _attr(t, "v") for t in elem.findall("tag")}
            ways[wid] = Way(node_ids=refs, tags=tags)
        # other elements (relations, bounds, ...) are irrelevant here

    for wid, way in ways.items():
        for nid in way.node_ids:
            if nid not in nodes:
                raise ReferentialIntegrityError(
                    f"way {wid} references missing node {nid}"
                )
    return OsmDocument(nodes=nodes, ways=ways)


def project_equirectangular(lat: float, lon: float, origin: tuple[float, float]) -> tuple[float, float]:
    """(lat, lon) degrees -> local (x, y) meters about the origin."""
    lat0, lon0 = origin
    x = math.radians(lon - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    y = math.radians(lat - lat0) * EARTH_RADIUS_M
    return x, y


def is_pedestrian_way(tags: dict[str, str]) -> bool:
    if tags.get("highway") in PEDESTRIAN_HIGHWAY_TAGS:
        return True
    sidewalk = tags.get("sidewalk")
    return sidewalk is not None and sidewalk not in NEGATIVE_SIDEWALK_VALUES


def extract_sidewalks(doc: OsmDocument, projection_origin: tuple[float, float],
                      width_rng: np.random.Generator) -> SidewalkNetwork:
    """Project pedestrian ways to local meters and assign sampled widths.

    Widths are drawn uniformly from the sidewalk range, one per retained way,
    in ascending way-id order for reproducibility.
    """
    polylines = []
    for wid in sorted(doc.ways):
        way = doc.ways[wid]
        if not is_pedestrian_way(way.tags):
            continue
        if len(way.node_ids) < 2:
            continue
        verts = []
        for nid in way.node_ids:
            lat, lon = doc.nodes[nid]
            verts.append(project_equirectangular(lat, lon, projection_origin))
        # collapse consecutive duplicates introduced by projection quantization
        dedup = [verts[0]]
        for v in verts[1:]:
            if v != dedup[-1]:
                dedup.append(v)
        if len(dedup) < 2:
            continue
        width = float(width_rng.uniform(*SIDEWALK_WIDTH_RANGE))
        polylines.append((dedup, width))
    if not polylines:
        raise EmptyNetworkError("no pedestrian ways retained by the tag filter")
    return SidewalkNetwork(polylines)
