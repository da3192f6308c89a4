"""Use-case applications: the paper's Memcached, NGINX and OpenSSL replicas."""

from .cluster import ClusterMetrics, NginxCluster
from .imagelib import (
    Image,
    ImageService,
    craft_dimension_lie,
    craft_run_overflow,
    decode_image_unsafe,
    encode_image,
    make_test_image,
)
from .http import (
    HttpRequest,
    HttpResponse,
    Router,
    default_router,
    parse_request_in_domain,
)
from .kvstore import KVStore, StoreStats
from .memcached_server import MemcachedServer, ServerMetrics
from .nginx_server import NginxMetrics, NginxServer
from .openssl_service import TlsMetrics, TlsServer
from .serving import DomainServer, IsolationMode
from .tls import (
    ContentType,
    HandshakeType,
    HeartbeatType,
    TlsRecord,
    decode_record,
    make_appdata,
    make_client_hello,
    make_finished,
    make_heartbeat_request,
    process_heartbeat_in_domain,
)

__all__ = [
    "ClusterMetrics",
    "NginxCluster",
    "Image",
    "ImageService",
    "craft_dimension_lie",
    "craft_run_overflow",
    "decode_image_unsafe",
    "encode_image",
    "make_test_image",
    "HttpRequest",
    "HttpResponse",
    "Router",
    "default_router",
    "parse_request_in_domain",
    "KVStore",
    "StoreStats",
    "DomainServer",
    "IsolationMode",
    "MemcachedServer",
    "ServerMetrics",
    "NginxMetrics",
    "NginxServer",
    "TlsMetrics",
    "TlsServer",
    "ContentType",
    "HandshakeType",
    "HeartbeatType",
    "TlsRecord",
    "decode_record",
    "make_appdata",
    "make_client_hello",
    "make_finished",
    "make_heartbeat_request",
    "process_heartbeat_in_domain",
]
