//! DeathStarBench-style social network (paper §VI-F, Fig. 11).
//!
//! The paper evaluates the social-network application's mixed workload:
//! 60% read-home-timeline, 30% read-user-timeline, 10% compose-post.
//! "All requests traverse at least three data mover services (load
//! balancer, proxy, and php-fpm) [...] Traffic in read-user-timeline even
//! traverses five data mover services."
//!
//! Topology (three servers, as in the paper):
//!
//! * server A: `nginx` (entry LB) and `proxy`;
//! * server B: `php-fpm`, `compose-post`, `home-timeline`;
//! * server C: `user-timeline`, `post-storage`.
//!
//! Posts carry media payloads; under DmRPC the media travels as a `Ref`
//! from composer to storage and from storage to reader, never touching the
//! movers.
//!
//! Consistency note: post-storage evicts beyond [`POST_CAPACITY`] and
//! releases the evicted refs. A reader that learned a post id just before
//! its eviction can race the release; the DM layer then reports a clean
//! `InvalidRef` (no stale data is ever served). Long-haul stress tests
//! tolerate a sub-percent rate of these application-level races.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use bytes::{BufMut, Bytes, BytesMut};
use dmcommon::{DmError, DmResult};
use dmrpc::{DmRpc, Value};
use loadgen::Population;
use rpclib::Message;
use simcore::{FastMap, SimRng, Zipf};
use simnet::Addr;

use crate::cluster::{Cluster, ServiceNode};
use crate::codec::{decode_values, encode_values, parse_id_value};

/// Front-door request (nginx, proxy, php-fpm route on the op byte).
pub const SOC_REQ: u8 = 5;
/// Internal: store a post (post-storage).
pub const SOC_STORE: u8 = 6;
/// Internal: fetch posts by id (post-storage).
pub const SOC_FETCH: u8 = 7;
/// Internal: append to a user timeline.
pub const SOC_APPEND_UTL: u8 = 8;
/// Internal: append one post to every listed follower's home timeline.
pub const SOC_APPEND_HTL: u8 = 9;

/// Front-door operations.
pub const OP_COMPOSE: u8 = 0;
/// Read the caller's home timeline.
pub const OP_READ_HOME: u8 = 1;
/// Read one user's timeline.
pub const OP_READ_USER: u8 = 2;

/// Posts returned per timeline read.
pub const POSTS_PER_READ: usize = 5;
/// Followers per user receiving home-timeline fan-out.
pub const FOLLOWERS: usize = 8;
/// Maximum posts retained before eviction.
pub const POST_CAPACITY: usize = 4096;
/// Posts a timeline keeps; an append past it drops the oldest.
const TIMELINE_LEN: usize = 64;
/// Distinct media payloads: `user`'s posts carry `media_size` bytes of
/// `user % MEDIA_KINDS`.
const MEDIA_KINDS: u32 = 251;

/// Workload mix (read-home, read-user, compose) — paper §VI-F.
pub const MIX: [f64; 3] = [0.6, 0.3, 0.1];

/// Front-door shed marker: a one-byte response no legitimate handler
/// produces (compose returns `"ok"`/empty, reads return a ≥2-byte value
/// list). The client maps it to [`DmError::Busy`].
pub const SOC_BUSY_RESP: &[u8] = &[0xEE];

/// Who receives home-timeline fan-out when a user composes.
///
/// `Fixed` is the fig11 graph ([`fixed_followers`]); `Scaled` defers to a
/// [`loadgen::Population`] (~100 followers/user, materialised lazily per
/// compose). Either list goes out as one [`SOC_APPEND_HTL`] request.
enum FanoutGraph {
    Fixed(Vec<Vec<u32>>),
    Scaled(Population),
}

/// The fixed graph of `users` users: [`FOLLOWERS`] uniform draws per user,
/// user 0's first, all from one RNG seeded by the build seed.
fn fixed_followers(users: u32, seed: u64) -> Vec<Vec<u32>> {
    let g = SimRng::new(seed ^ 0xF00D);
    (0..users)
        .map(|_| {
            (0..FOLLOWERS)
                .map(|_| g.gen_range(users as u64) as u32)
                .collect()
        })
        .collect()
}

impl FanoutGraph {
    fn followers(&self, user: u32) -> Vec<u32> {
        match self {
            FanoutGraph::Fixed(g) => g[user as usize].clone(),
            FanoutGraph::Scaled(p) => p.followers(user),
        }
    }
}

/// Per-user timelines of post ids. Ids are assigned from 1 by one
/// compose service and kept as `u32`; the wire carries them as `u64`, and
/// an append naming an id past `u32` names no post and is dropped.
struct TimelineMap {
    map: FastMap<u32, VecDeque<u32>>,
}

impl TimelineMap {
    fn new() -> Self {
        TimelineMap {
            map: FastMap::default(),
        }
    }

    fn append(&mut self, user: u32, post: u64) {
        let Ok(post) = u32::try_from(post) else {
            return;
        };
        let tl = self.map.entry(user).or_default();
        if tl.len() == TIMELINE_LEN {
            tl.pop_front();
        }
        tl.push_back(post);
    }

    /// The post-storage request for `user`'s `k` most recent posts, newest
    /// first: `[n u16][post id u64 × n]`.
    fn recent_request(&self, user: u32, k: usize) -> Bytes {
        let tl = self.map.get(&user);
        let n = tl.map_or(0, |tl| tl.len().min(k));
        let mut out = BytesMut::with_capacity(2 + 8 * n);
        out.put_u16_le(n as u16);
        for &id in tl.into_iter().flat_map(|tl| tl.iter().rev().take(n)) {
            out.put_u64_le(u64::from(id));
        }
        out.freeze()
    }
}

fn get_ids(b: &[u8]) -> DmResult<(Vec<u64>, usize)> {
    if b.len() < 2 {
        return Err(DmError::Malformed);
    }
    let n = u16::from_le_bytes(b[0..2].try_into().expect("len ok")) as usize;
    if b.len() < 2 + 8 * n {
        return Err(DmError::Malformed);
    }
    let ids = (0..n)
        .map(|i| u64::from_le_bytes(b[2 + 8 * i..10 + 8 * i].try_into().expect("len ok")))
        .collect();
    Ok((ids, 2 + 8 * n))
}

/// A deployed social network.
pub struct SocialApp {
    /// The workload client's endpoint.
    pub client: Rc<DmRpc>,
    /// Front door (nginx).
    pub entry: Addr,
    /// Users in the social graph.
    pub users: u32,
    /// Media payload size per post.
    pub media_size: usize,
    /// The three server nodes (stats).
    pub servers: Vec<ServiceNode>,
    /// The client's gate onto the front-door window (`None` when overload
    /// control is off, the default). It is the same size as nginx's:
    /// cooperative clients fail fast *before* uploading media or issuing
    /// DM fetches, so a shed request costs neither NIC bandwidth nor DM
    /// allocations. The nginx entry handler keeps its own authoritative
    /// window for non-cooperative callers.
    gate: Option<Window>,
    /// One buffer per distinct media payload, built on first use: every
    /// post of a residue publishes a view of it, so the host holds at most
    /// [`MEDIA_KINDS`] payloads however many posts live (DESIGN.md "What a
    /// view pins").
    media: RefCell<Vec<Option<Bytes>>>,
    htl: Rc<RefCell<TimelineMap>>,
    rng: SimRng,
    zipf: Zipf,
}

/// Deploy the social network on three servers plus a client node.
pub async fn build_social(
    cluster: &Cluster,
    users: u32,
    media_size: usize,
    seed: u64,
) -> SocialApp {
    build_social_inner(cluster, users, media_size, seed, None, None, POST_CAPACITY).await
}

/// [`build_social`] with an explicit post-storage capacity. A cap smaller
/// than the post volume makes every steady-state compose evict (and
/// release) the oldest post's media ref — the write-churn regime the
/// cache-coherence bench measures.
pub async fn build_social_capped(
    cluster: &Cluster,
    users: u32,
    media_size: usize,
    seed: u64,
    post_capacity: usize,
) -> SocialApp {
    build_social_inner(cluster, users, media_size, seed, None, None, post_capacity).await
}

/// Deploy the social network over a scale-factor [`Population`], optionally
/// bounding the requests in flight through the front door to `window`
/// (DESIGN.md §14).
///
/// The fan-out graph and hot-key sampler come from the population (so the
/// same `SF` always produces the same workload, regardless of thread
/// count). With a window, a request that finds it full is refused on the
/// spot: by the client's gate with [`DmError::Busy`], or by the nginx
/// entry handler with [`SOC_BUSY_RESP`].
pub async fn build_social_scaled(
    cluster: &Cluster,
    pop: Population,
    media_size: usize,
    seed: u64,
    window: Option<u64>,
) -> SocialApp {
    build_social_inner(
        cluster,
        pop.users(),
        media_size,
        seed,
        Some(pop),
        window,
        POST_CAPACITY,
    )
    .await
}

async fn build_social_inner(
    cluster: &Cluster,
    users: u32,
    media_size: usize,
    seed: u64,
    pop: Option<Population>,
    window: Option<u64>,
    post_capacity: usize,
) -> SocialApp {
    let rng = SimRng::new(seed);
    let server_a = cluster.add_server("sn-a");
    let server_b = cluster.add_server("sn-b");
    let server_c = cluster.add_server("sn-c");

    // ---- post-storage (server C, port 101) -------------------------------
    let storage_ep = cluster.endpoint(&server_c, 101).await;
    // Post store: id -> media value, plus FIFO eviction order.
    type PostStore = (FastMap<u64, Value>, VecDeque<u64>);
    let posts: Rc<RefCell<PostStore>> = Rc::new(RefCell::new(Default::default()));
    {
        // STORE: [post_id u64][value bytes]
        let posts = posts.clone();
        let ep = storage_ep.clone();
        storage_ep.rpc().register(SOC_STORE, move |ctx| {
            let posts = posts.clone();
            let ep = ep.clone();
            async move {
                let Ok((id, v)) = parse_id_value(&ctx.payload) else {
                    return Bytes::new();
                };
                let evicted = {
                    let mut p = posts.borrow_mut();
                    p.0.insert(id, v);
                    p.1.push_back(id);
                    if p.1.len() > post_capacity {
                        let old = p.1.pop_front().expect("len > 0");
                        p.0.remove(&old)
                    } else {
                        None
                    }
                };
                if let Some(old) = evicted {
                    let _ = ep.release(&old).await;
                }
                Bytes::from_static(b"ok")
            }
        });
    }
    {
        // FETCH: [ids] -> encoded value list (the storage never touches the
        // media itself — it forwards stored Values).
        let posts = posts.clone();
        storage_ep.rpc().register(SOC_FETCH, move |ctx| {
            let posts = posts.clone();
            async move {
                let Ok((ids, _)) = get_ids(&ctx.payload.into_bytes()) else {
                    return encode_values(&[]);
                };
                let p = posts.borrow();
                let values: Vec<Value> = ids.iter().filter_map(|id| p.0.get(id).cloned()).collect();
                encode_values(&values)
            }
        });
    }
    let storage_addr = storage_ep.addr();

    // ---- user-timeline (server C, port 100) -------------------------------
    let utl_ep = cluster.endpoint(&server_c, 100).await;
    let utl = Rc::new(RefCell::new(TimelineMap::new()));
    {
        let utl2 = utl.clone();
        utl_ep.rpc().register(SOC_APPEND_UTL, move |ctx| {
            let utl = utl2.clone();
            async move {
                let req = &ctx.payload;
                if let (Some(user), Some(post)) = (req.array(0), req.array(4)) {
                    let (user, post) = (u32::from_le_bytes(user), u64::from_le_bytes(post));
                    utl.borrow_mut().append(user, post);
                }
                Bytes::from_static(b"ok")
            }
        });
    }
    {
        // READ-USER: [user u32] -> value list via post-storage.
        let utl2 = utl.clone();
        let ep = utl_ep.clone();
        utl_ep.rpc().register(SOC_REQ, move |ctx| {
            let utl = utl2.clone();
            let ep = ep.clone();
            async move {
                let Some(user) = ctx.payload.array(0).map(u32::from_le_bytes) else {
                    return encode_values(&[]).into();
                };
                let req = utl.borrow().recent_request(user, POSTS_PER_READ);
                match ep.rpc().call(storage_addr, SOC_FETCH, req).await {
                    Ok(resp) => resp,
                    Err(_) => encode_values(&[]).into(),
                }
            }
        });
    }
    let utl_addr = utl_ep.addr();

    // ---- home-timeline (server B, port 102) --------------------------------
    let htl_ep = cluster.endpoint(&server_b, 102).await;
    let htl = Rc::new(RefCell::new(TimelineMap::new()));
    {
        let htl2 = htl.clone();
        // APPEND-HTL: [post_id u64][follower u32 × n] — the whole fan-out
        // of one compose (DeathStarBench's `WriteHomeTimeline`). A trailing
        // partial id is ignored; whole ids before it are applied.
        htl_ep.rpc().register(SOC_APPEND_HTL, move |ctx| {
            let htl = htl2.clone();
            async move {
                let payload = ctx.payload.into_bytes();
                if let Some((post, followers)) = payload.split_first_chunk::<8>() {
                    let post = u64::from_le_bytes(*post);
                    let mut htl = htl.borrow_mut();
                    for f in followers.chunks_exact(4) {
                        htl.append(u32::from_le_bytes(f.try_into().expect("4 B")), post);
                    }
                }
                Bytes::from_static(b"ok")
            }
        });
    }
    {
        let htl2 = htl.clone();
        let ep = htl_ep.clone();
        htl_ep.rpc().register(SOC_REQ, move |ctx| {
            let htl = htl2.clone();
            let ep = ep.clone();
            async move {
                let Some(user) = ctx.payload.array(0).map(u32::from_le_bytes) else {
                    return encode_values(&[]).into();
                };
                let req = htl.borrow().recent_request(user, POSTS_PER_READ);
                match ep.rpc().call(storage_addr, SOC_FETCH, req).await {
                    Ok(resp) => resp,
                    Err(_) => encode_values(&[]).into(),
                }
            }
        });
    }
    let htl_addr = htl_ep.addr();

    // ---- compose-post (server B, port 101) ---------------------------------
    let compose_ep = cluster.endpoint(&server_b, 101).await;
    let graph: Rc<FanoutGraph> = Rc::new(match pop {
        Some(p) => FanoutGraph::Scaled(p),
        None => FanoutGraph::Fixed(fixed_followers(users, seed)),
    });
    let next_post = Rc::new(Cell::new(1u32));
    {
        let ep = compose_ep.clone();
        let graph = graph.clone();
        let next_post = next_post.clone();
        compose_ep.rpc().register(SOC_REQ, move |ctx| {
            let ep = ep.clone();
            let graph = graph.clone();
            let next_post = next_post.clone();
            async move {
                // [user u32][value bytes]
                let Some(user) = ctx.payload.array(0).map(u32::from_le_bytes) else {
                    return Bytes::new();
                };
                let post_id = next_post.get();
                next_post.set(post_id.checked_add(1).expect("post ids fit in u32"));
                let post_id = u64::from(post_id);
                // Store the post: forward the media value untouched.
                let store_req = ctx.payload.skip(4).prefixed(&post_id.to_le_bytes());
                let _ = ep.rpc().call(storage_addr, SOC_STORE, store_req).await;
                // Only then the two timelines, so none names a post storage
                // does not hold; they go out together, as DeathStarBench's
                // ComposePost writes them. One request carries the whole
                // follower list.
                let followers = graph.followers(user);
                let mut fan = BytesMut::with_capacity(8 + 4 * followers.len());
                fan.put_u64_le(post_id);
                for f in followers {
                    fan.put_u32_le(f);
                }
                let trace = telemetry::current_ctx();
                let htl_call = {
                    let ep = ep.clone();
                    simcore::spawn(async move {
                        let _trace = trace.and_then(telemetry::set_ctx);
                        let _ = ep.rpc().call(htl_addr, SOC_APPEND_HTL, fan.freeze()).await;
                    })
                };
                let mut app = BytesMut::with_capacity(12);
                app.put_u32_le(user);
                app.put_u64_le(post_id);
                let _ = ep.rpc().call(utl_addr, SOC_APPEND_UTL, app.freeze()).await;
                htl_call.await;
                Bytes::from_static(b"ok")
            }
        });
    }
    let compose_addr = compose_ep.addr();

    // ---- data movers: php-fpm (B), proxy (A), nginx (A) --------------------
    let phpfpm_ep = cluster.endpoint(&server_b, 100).await;
    {
        let ep = phpfpm_ep.clone();
        phpfpm_ep.rpc().register(SOC_REQ, move |ctx| {
            let ep = ep.clone();
            async move {
                let target = match ctx.payload.get(0) {
                    Some(OP_COMPOSE) => compose_addr,
                    Some(OP_READ_HOME) => htl_addr,
                    Some(OP_READ_USER) => utl_addr,
                    _ => return Message::default(),
                };
                let body = ctx.payload.skip(1);
                ep.rpc()
                    .call(target, SOC_REQ, body)
                    .await
                    .unwrap_or_default()
            }
        });
    }
    let phpfpm_addr = phpfpm_ep.addr();

    let proxy_ep = cluster.endpoint(&server_a, 101).await;
    {
        let ep = proxy_ep.clone();
        proxy_ep.rpc().register(SOC_REQ, move |ctx| {
            let ep = ep.clone();
            async move {
                ep.rpc()
                    .call(phpfpm_addr, SOC_REQ, ctx.payload)
                    .await
                    .unwrap_or_default()
            }
        });
    }
    let proxy_addr = proxy_ep.addr();

    let nginx_ep = cluster.endpoint(&server_a, 100).await;
    // Two gates of one size: nginx's protects the service tier from any
    // caller; the client's (returned in the app) bounds whole-request
    // concurrency, including the media upload and DM fetch phases the front
    // door never sees.
    {
        let ep = nginx_ep.clone();
        let gate = window.map(Window::new);
        nginx_ep.rpc().register(SOC_REQ, move |ctx| {
            let ep = ep.clone();
            let gate = gate.clone();
            async move {
                // The slot is held across the downstream call.
                let Ok(_slot) = try_enter(&gate) else {
                    return Bytes::from_static(SOC_BUSY_RESP).into();
                };
                ep.rpc()
                    .call(proxy_addr, SOC_REQ, ctx.payload)
                    .await
                    .unwrap_or_default()
            }
        });
    }

    // ---- client -------------------------------------------------------------
    let client_node = cluster.add_server("sn-client");
    let client = cluster.endpoint(&client_node, 100).await;
    SocialApp {
        client,
        entry: nginx_ep.addr(),
        users,
        media_size,
        servers: vec![server_a, server_b, server_c],
        gate: window.map(Window::new),
        media: RefCell::new(vec![None; MEDIA_KINDS as usize]),
        htl,
        // Scaled populations bring their own hot-key sampler (derived from
        // the population seed, so SF alone pins the workload); the fixed
        // path keeps its historical fork-of-the-build-seed sampler.
        zipf: match pop {
            Some(p) => p.sampler(),
            None => Zipf::new(rng.fork(), users as usize, 0.99),
        },
        rng,
    }
}

/// A front-door window: the slots still free. A full window refuses on
/// the spot and never queues.
#[derive(Clone)]
struct Window(Rc<Cell<u64>>);

/// A request's place in a [`Window`], given back when it drops (a
/// cancelled request included).
struct Slot(Rc<Cell<u64>>);

impl Window {
    fn new(size: u64) -> Window {
        Window(Rc::new(Cell::new(size)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.set(self.0.get() + 1);
    }
}

/// A slot in a front-door window, when there is one; `Busy` when it is
/// full.
fn try_enter(gate: &Option<Window>) -> DmResult<Option<Slot>> {
    let Some(Window(free)) = gate else {
        return Ok(None);
    };
    let n = free.get().checked_sub(1).ok_or(DmError::Busy)?;
    free.set(n);
    Ok(Some(Slot(free.clone())))
}

impl SocialApp {
    /// Compose a post with `user`'s media.
    pub async fn compose(&self, user: u32) -> DmResult<()> {
        let client = self.client.clone();
        self.compose_from(&client, user).await
    }

    /// [`Self::compose`] with the media uploaded from `writer` — a second
    /// client endpoint — so the composer's DM traffic neither warms nor
    /// churns this app client's cache. The cache-coherence bench uses
    /// this to separate the reading client from the writing one.
    pub async fn compose_from(&self, writer: &Rc<DmRpc>, user: u32) -> DmResult<()> {
        // The slot spans the whole request: media upload, movers, DM fetches.
        let _slot = try_enter(&self.gate)?;
        let v = writer.make_value(self.media(user)).await?;
        let mut req = BytesMut::with_capacity(5);
        req.put_u8(OP_COMPOSE);
        req.put_u32_le(user);
        let resp = writer
            .rpc()
            .call(self.entry, SOC_REQ, v.encode().prefixed(&req))
            .await
            .map_err(|_| DmError::Transport)?;
        // NOTE: the Ref ownership passes to post-storage; the writer does
        // not release it.
        if resp == *SOC_BUSY_RESP {
            // The front door shed us before the post reached storage, so
            // ownership never transferred — release the media ref here or
            // every rejected compose would pin a DM page.
            let _ = writer.release(&v).await;
            return Err(DmError::Busy);
        }
        if resp.is_empty() {
            return Err(DmError::Malformed);
        }
        Ok(())
    }

    /// `user`'s media payload: a clone of its residue's one buffer.
    fn media(&self, user: u32) -> Bytes {
        let kind = user % MEDIA_KINDS;
        let mut media = self.media.borrow_mut();
        let buf = media[kind as usize]
            .get_or_insert_with(|| Bytes::from(vec![kind as u8; self.media_size]));
        buf.clone()
    }

    async fn read(&self, op: u8, user: u32) -> DmResult<usize> {
        let _slot = try_enter(&self.gate)?;
        let mut req = BytesMut::with_capacity(5);
        req.put_u8(op);
        req.put_u32_le(user);
        let resp = self
            .client
            .rpc()
            .call(self.entry, SOC_REQ, req.freeze())
            .await
            .map_err(|_| DmError::Transport)?;
        let resp = resp.into_bytes();
        if resp.as_ref() == SOC_BUSY_RESP {
            return Err(DmError::Busy);
        }
        let values = decode_values(&resp)?;
        // Materialize all posts concurrently (a real client would issue the
        // DM reads in parallel; inline values complete immediately).
        let mut handles = Vec::with_capacity(values.len());
        for v in values {
            let client = self.client.clone();
            handles.push(simcore::spawn(async move {
                client.fetch(&v).await.map(|d| d.len())
            }));
        }
        let mut total = 0usize;
        for h in handles {
            total += h.await?;
        }
        Ok(total)
    }

    /// Post ids on `user`'s home timeline, oldest first (the service's own
    /// state, read without a request).
    pub fn home_timeline(&self, user: u32) -> Vec<u64> {
        let htl = self.htl.borrow();
        htl.map
            .get(&user)
            .map_or_else(Vec::new, |tl| tl.iter().map(|&id| u64::from(id)).collect())
    }

    /// Read the home timeline of `user`; returns media bytes materialized.
    pub async fn read_home(&self, user: u32) -> DmResult<usize> {
        self.read(OP_READ_HOME, user).await
    }

    /// Read the timeline of `user`.
    pub async fn read_user(&self, user: u32) -> DmResult<usize> {
        self.read(OP_READ_USER, user).await
    }

    /// One request drawn from the paper's 60/30/10 mix.
    pub async fn mixed_request(&self) -> DmResult<()> {
        let user = self.zipf.sample() as u32;
        match self.rng.pick_weighted(&MIX) {
            0 => {
                self.read_home(user).await?;
            }
            1 => {
                self.read_user(user).await?;
            }
            _ => {
                let composer = self.rng.gen_range(self.users as u64) as u32;
                self.compose(composer).await?;
            }
        }
        Ok(())
    }

    /// Seed the network with `n_posts` posts so reads have data.
    pub async fn preload(&self, n_posts: usize) -> DmResult<()> {
        for i in 0..n_posts {
            self.compose((i as u32) % self.users).await?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{ClusterConfig, SystemKind};
    use dmrpc::DmRpc;
    use simcore::Sim;
    use std::collections::HashMap;

    fn deploy(kind: SystemKind) -> (Sim, Rc<RefCell<Option<SocialApp>>>) {
        let sim = Sim::new();
        let slot = Rc::new(RefCell::new(None));
        let s2 = slot.clone();
        sim.block_on(async move {
            let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 100, 4096, 1).await;
            *s2.borrow_mut() = Some(app);
        });
        (sim, slot)
    }

    #[test]
    fn compose_then_read_user_returns_media() {
        for kind in SystemKind::ALL {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 99);
                let app = build_social(&cluster, 100, 4096, 1).await;
                app.compose(7).await.unwrap();
                app.compose(7).await.unwrap();
                let bytes = app.read_user(7).await.unwrap();
                assert_eq!(bytes, 2 * 4096, "{kind:?}");
            });
        }
    }

    #[test]
    fn posts_of_one_residue_share_one_media_buffer_and_every_read_is_a_view() {
        const USERS: u32 = 300;
        const MEDIA: usize = 8192;
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, USERS, MEDIA, 1).await;
            // Users u and u + 251 share a payload; 350 posts, two for each
            // of the first 50 users.
            for user in (0..USERS).chain(0..50) {
                app.compose(user).await.unwrap();
            }
            let tables = app.media.borrow().iter().flatten().count();
            assert!(
                tables <= USERS.min(MEDIA_KINDS) as usize,
                "{tables} buffers"
            );
            // The composing client caches what it published: read the
            // posts through a second one, so each read reaches a DM server.
            let reader = cluster.add_server("reader");
            let reader = cluster.endpoint(&reader, 100).await;
            for user in (0..USERS).step_by(7).chain([250, 251, 252]) {
                let mut req = BytesMut::with_capacity(5);
                req.put_u8(OP_READ_USER);
                req.put_u32_le(user);
                let resp = app.client.rpc().call(app.entry, SOC_REQ, req.freeze());
                let values = decode_values(&resp.await.unwrap().into_bytes()).unwrap();
                assert_eq!(values.len(), if user < 50 { 2 } else { 1 }, "user {user}");
                let published = app.media(user);
                for v in values {
                    assert!(v.is_by_ref());
                    let got = reader.fetch(&v).await.unwrap();
                    assert_eq!(got.len(), MEDIA);
                    assert!(got.iter().all(|&b| u32::from(b) == user % MEDIA_KINDS));
                    assert_eq!(got.as_ptr(), published.as_ptr(), "user {user}: a copy");
                }
            }
            let (mut viewed, mut gathered) = (0, 0);
            for s in &cluster.dm_servers {
                let (v, g) = s.with_page_manager(|pm| pm.read_bytes());
                (viewed, gathered) = (viewed + v, gathered + g);
            }
            assert!(viewed > 0);
            assert_eq!(gathered, 0, "a post read gathered pages into a new buffer");
        });
    }

    #[test]
    fn home_timeline_fanout_reaches_followers() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 50, 4096, 1).await;
            // Compose from everyone; some follower's home timeline fills.
            app.preload(100).await.unwrap();
            let mut saw = 0usize;
            for u in 0..50 {
                saw += app.read_home(u).await.unwrap();
            }
            assert!(saw > 0, "fan-out must populate home timelines");
        });
    }

    /// The endpoint bound at `(node, port)`.
    fn endpoint(cluster: &Cluster, node: &ServiceNode, port: u16) -> Rc<DmRpc> {
        let addr = Addr {
            node: node.id,
            port,
        };
        let found = cluster.endpoints().into_iter().find(|e| e.addr() == addr);
        found.expect("service endpoint")
    }

    /// What every home timeline must hold after `composers` composed in
    /// this order from a fresh app (post ids count from 1).
    fn expected_timelines(
        composers: &[u32],
        followers: impl Fn(u32) -> Vec<u32>,
    ) -> HashMap<u32, Vec<u64>> {
        let mut want: HashMap<u32, Vec<u64>> = HashMap::new();
        for (i, &c) in composers.iter().enumerate() {
            for f in followers(c) {
                want.entry(f).or_default().push(i as u64 + 1);
            }
        }
        want
    }

    #[test]
    fn fanout_reaches_exactly_the_followers_once_each_in_compose_order() {
        const COMPOSERS: [u32; 4] = [7, 3, 7, 12];
        let sim = Sim::new();
        sim.block_on(async move {
            // Fixed graph: each user's own list, drawn in user order from
            // one RNG.
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 100, 4096, 1).await;
            let g = SimRng::new(1 ^ 0xF00D);
            let fixed: Vec<Vec<u32>> = (0..100)
                .map(|_| (0..FOLLOWERS).map(|_| g.gen_range(100) as u32).collect())
                .collect();
            for c in COMPOSERS {
                let mut distinct = fixed[c as usize].clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), FOLLOWERS, "seed 1 draws distinct followers");
            }
            assert_ne!(fixed[7], fixed[3], "users do not share a list");
            for c in COMPOSERS {
                app.compose(c).await.unwrap();
            }
            let want = expected_timelines(&COMPOSERS, |c| fixed[c as usize].clone());
            for u in 0..app.users {
                let want = want.get(&u).cloned().unwrap_or_default();
                assert_eq!(app.home_timeline(u), want, "fixed graph, user {u}");
            }

            // Scaled graph: ~100 followers each, from the population.
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let pop = Population::new(1, 42);
            let app = build_social_scaled(&cluster, pop, 4096, 1, None).await;
            for c in COMPOSERS {
                app.compose(c).await.unwrap();
            }
            let want = expected_timelines(&COMPOSERS, |c| pop.followers(c));
            assert!(want.len() > FOLLOWERS && want.len() < app.users as usize);
            for u in 0..app.users {
                let want = want.get(&u).cloned().unwrap_or_default();
                assert_eq!(app.home_timeline(u), want, "scaled graph, user {u}");
            }
        });
    }

    #[test]
    fn append_handler_applies_whole_entries_of_any_list() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 10, 4096, 1).await;
            let htl = Addr {
                node: app.servers[1].id,
                port: 102,
            };
            let send = |post: Option<u64>, ids: std::ops::Range<u32>, tail: &'static [u8]| {
                let mut req = BytesMut::new();
                if let Some(post) = post {
                    req.put_u64_le(post);
                }
                for id in ids {
                    req.put_u32_le(id);
                }
                req.extend_from_slice(tail);
                app.client.rpc().call(htl, SOC_APPEND_HTL, req.freeze())
            };
            let holders = |post: u64| {
                (0..2100)
                    .filter(|&u| app.home_timeline(u).contains(&post))
                    .collect::<Vec<u32>>()
            };

            // 8 008 B: two fragments past the 4 KiB MTU.
            assert_eq!(
                send(Some(1), 0..2000, b"")
                    .await
                    .unwrap()
                    .into_bytes()
                    .as_ref(),
                b"ok"
            );
            assert_eq!(holders(1), (0..2000).collect::<Vec<u32>>());
            // No followers.
            assert_eq!(
                send(Some(2), 0..0, b"")
                    .await
                    .unwrap()
                    .into_bytes()
                    .as_ref(),
                b"ok"
            );
            assert_eq!(holders(2), Vec::<u32>::new());
            // Shorter than a post id: nothing to apply, and nothing to read past.
            assert_eq!(
                send(None, 0..0, b"\x03\0\0\0\x09")
                    .await
                    .unwrap()
                    .into_bytes()
                    .as_ref(),
                b"ok"
            );
            assert_eq!(app.home_timeline(3), [1]);
            // Two whole ids, then half of one.
            assert_eq!(
                send(Some(4), 5..7, b"\x07\0")
                    .await
                    .unwrap()
                    .into_bytes()
                    .as_ref(),
                b"ok"
            );
            assert_eq!(holders(4), [5, 6]);
            assert_eq!(app.home_timeline(5), [1, 4]);
            // An id no compose assigns (past `u32`) names no post.
            assert_eq!(
                send(Some(1 << 32), 5..6, b"")
                    .await
                    .unwrap()
                    .into_bytes()
                    .as_ref(),
                b"ok"
            );
            assert_eq!(app.home_timeline(5), [1, 4]);
        });
    }

    #[test]
    fn compose_issues_three_calls_whatever_the_fanout_storing_before_both_timelines() {
        let sim = Sim::new();
        sim.block_on(async move {
            // 8 followers.
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 100, 4096, 1).await;
            let compose = endpoint(&cluster, &app.servers[1], 101);
            let calls = move || compose.rpc().stats().calls_completed.get();
            let before = calls();
            app.compose(7).await.unwrap();
            assert_eq!(calls() - before, 3);

            // >= 100 followers.
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let pop = Population::new(1, 42);
            let user = (0..pop.users())
                .find(|&u| pop.follower_count(u) >= 100)
                .expect("mean degree is 100");
            let follower = pop.followers(user)[0];
            let app = Rc::new(build_social_scaled(&cluster, pop, 4096, 1, None).await);
            let compose = endpoint(&cluster, &app.servers[1], 101);
            let before = compose.rpc().stats().calls_completed.get();
            let handled = |port| {
                let ep = endpoint(&cluster, &app.servers[2], port);
                move || ep.rpc().stats().requests_handled.get()
            };
            let (utl, storage) = (handled(100), handled(101));
            // A timeline must never name a post storage does not hold, and
            // once storage holds it, both appends are on the wire together:
            // watch the services while the compose is in flight.
            let watcher = {
                let (app, compose) = (app.clone(), compose.clone());
                simcore::spawn(async move {
                    let mut both_in_flight = false;
                    loop {
                        let htl_written = !app.home_timeline(follower).is_empty();
                        if utl() > 0 || htl_written {
                            assert_eq!(storage(), 1, "a timeline written before the store");
                        }
                        both_in_flight |= compose.rpc().inflight_calls() == 2;
                        if utl() == 1 && htl_written {
                            break;
                        }
                        simcore::sleep(std::time::Duration::from_nanos(50)).await;
                    }
                    assert!(both_in_flight, "the two appends never overlapped");
                })
            };
            app.compose(user).await.unwrap();
            watcher.await;
            assert_eq!(compose.rpc().stats().calls_completed.get() - before, 3);
            assert_eq!(app.home_timeline(follower), [1]);
        });
    }

    #[test]
    fn read_empty_timeline_is_empty() {
        let (_sim, _slot) = deploy(SystemKind::Erpc);
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::Erpc, 0, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 10, 4096, 1).await;
            assert_eq!(app.read_home(3).await.unwrap(), 0);
            assert_eq!(app.read_user(3).await.unwrap(), 0);
        });
    }

    #[test]
    fn mixed_workload_runs_on_all_systems() {
        for kind in SystemKind::ALL {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 99);
                let app = build_social(&cluster, 50, 2048, 7).await;
                app.preload(30).await.unwrap();
                for _ in 0..30 {
                    app.mixed_request().await.unwrap();
                }
            });
        }
    }

    #[test]
    fn movers_stay_cold_under_dmrpc() {
        let run = |kind| {
            let sim = Sim::new();
            sim.block_on(async move {
                let cluster = Cluster::new(kind, 2, ClusterConfig::default(), 99);
                let app = build_social(&cluster, 50, 16384, 7).await;
                app.preload(20).await.unwrap();
                cluster.reset_stats();
                for u in 0..10 {
                    app.read_home(u).await.unwrap();
                }
                // Server A runs only nginx + proxy (pure movers).
                app.servers[0].mem.traffic_bytes()
            })
        };
        let erpc = run(SystemKind::Erpc);
        let dm = run(SystemKind::DmNet);
        assert!(
            dm * 10 < erpc.max(1),
            "mover traffic: eRPC {erpc} vs DmRPC-net {dm}"
        );
    }

    #[test]
    fn scaled_social_serves_population_workload() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let pop = Population::new(1, 42);
            let app = build_social_scaled(&cluster, pop, 2048, 7, None).await;
            assert_eq!(app.users, 1000);
            assert!(app.gate.is_none());
            app.preload(20).await.unwrap();
            for _ in 0..20 {
                app.mixed_request().await.unwrap();
            }
        });
    }

    #[test]
    fn front_door_shed_returns_busy_and_releases_media() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 2, ClusterConfig::default(), 99);
            let pop = Population::new(1, 42);
            // A window of 1, and two composes racing for it.
            let app = Rc::new(build_social_scaled(&cluster, pop, 4096, 7, Some(1)).await);
            let used_before = {
                let pm = &cluster.dm_servers[0];
                pm.with_page_manager(|pm| pm.capacity_pages() - pm.free_pages())
            };
            let a = {
                let app = app.clone();
                simcore::spawn(async move { app.compose(1).await })
            };
            let b = {
                let app = app.clone();
                simcore::spawn(async move { app.compose(2).await })
            };
            let (ra, rb) = (a.await, b.await);
            // Exactly one of the two composes was shed; the other went through.
            assert!(
                matches!(
                    (&ra, &rb),
                    (Ok(()), Err(DmError::Busy)) | (Err(DmError::Busy), Ok(()))
                ),
                "got {ra:?} / {rb:?}"
            );
            // The shed compose released its media ref: only the stored
            // post's page remains pinned.
            let used_after = {
                let pm = &cluster.dm_servers[0];
                pm.with_page_manager(|pm| pm.capacity_pages() - pm.free_pages())
            };
            assert_eq!(used_after - used_before, 1, "shed compose leaked a page");
        });
    }

    #[test]
    fn a_full_window_refuses_at_once_and_a_dropped_slot_frees_its_place() {
        assert!(matches!(try_enter(&None), Ok(None)));
        let gate = Some(Window::new(2));
        let a = try_enter(&gate).unwrap();
        let b = try_enter(&gate).unwrap();
        assert!(matches!(try_enter(&gate), Err(DmError::Busy)));
        drop(a);
        let c = try_enter(&gate).unwrap();
        assert!(matches!(try_enter(&gate), Err(DmError::Busy)));
        drop((b, c));
        assert_eq!(gate.map(|w| w.0.get()), Some(2), "every slot came back");
    }

    #[test]
    fn post_eviction_releases_refs() {
        let sim = Sim::new();
        sim.block_on(async move {
            let cluster = Cluster::new(SystemKind::DmNet, 1, ClusterConfig::default(), 99);
            let app = build_social(&cluster, 10, 4096, 1).await;
            // Overflow the post store.
            app.preload(POST_CAPACITY + 50).await.unwrap();
            // The DM server must not have leaked: pages for evicted posts
            // were released. (One page per 4 KiB post.)
            let free = cluster.dm_servers[0].with_page_manager(|pm| pm.free_pages());
            let cap = cluster.dm_servers[0].with_page_manager(|pm| pm.capacity_pages());
            assert!(
                cap - free <= POST_CAPACITY + 60,
                "leaked pages: {} in use",
                cap - free
            );
        });
    }
}
