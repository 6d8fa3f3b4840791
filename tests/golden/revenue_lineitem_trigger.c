/* === trigger +lineitem === */
/* for m2 idx0[@p0] {bind 1->f0}: m0[f0] += param(1) param(2) loopval(0) mul(3) | grouped: loopval(0) */
typedef struct {
  const RdbHostApi* api;
  void* ctx;
  const RdbVal* p;
  RdbNum sc;
  RdbVal f[1];
  RdbNum lv[1];
  RdbVal* kb;
  RdbNum* vb;
  uint32_t nb;
} rdb_t2_s0_env;
static void rdb_t2_s0_w_body(rdb_t2_s0_env* E) {
  RdbNum t0 = rdb_mul(rdb_mul(rdb_num(E->api, E->ctx, E->p[1]), rdb_num(E->api, E->ctx, E->p[2])), E->lv[0]);
  RdbNum v = t0;
  if (rdb_is_zero(v)) return;
  if (!rdb_is_one(E->sc)) v = rdb_mul(v, E->sc);
  RdbVal* kk = E->kb + (size_t)E->nb * 1;
  kk[0] = E->f[0];
  E->vb[E->nb] = v;
  if (++E->nb == 128) {
    E->api->add_span(E->ctx, 0, E->kb, E->vb, E->nb, 1);
    E->nb = 0;
  }
}
static void rdb_t2_s0_w_l0(void* ve, const RdbVal* k, RdbNum m) {
  rdb_t2_s0_env* E = (rdb_t2_s0_env*)ve;
  E->f[0] = k[1];
  E->lv[0] = m;
  rdb_t2_s0_w_body(E);
}
void rdb_t2_s0_w(const RdbHostApi* api, void* ctx, const RdbColWin* win) {
  rdb_t2_s0_env e;
  e.api = api;
  e.ctx = ctx;
  RdbVal pbuf[3];
  e.p = pbuf;
  RdbVal kb[128];
  RdbNum vb[128];
  e.kb = kb;
  e.vb = vb;
  e.nb = 0;
  const RdbVal* restrict c0 = win->cols[0];
  const RdbVal* restrict c1 = win->cols[1];
  const RdbVal* restrict c2 = win->cols[2];
  const uint32_t* restrict rows = win->rows;
  const RdbNum* restrict scales = win->scales;
  rdb_t2_s0_env* E = &e;
  for (uint32_t i = 0; i < win->n; ++i) {
    const uint32_t r = rows[i];
    pbuf[0] = c0[r];
    pbuf[1] = c1[r];
    pbuf[2] = c2[r];
    e.sc = scales[i];
    RdbVal sk0[1];
    sk0[0] = E->p[0];
    E->api->foreach_matching(E->ctx, 2, 0, sk0, 1, rdb_t2_s0_w_l0, (void*)E);
  }
  if (e.nb) api->add_span(ctx, 0, kb, vb, e.nb, 1);
}

static void rdb_t2_s0_gw_body(rdb_t2_s0_env* E) {
  RdbNum v = E->lv[0];
  if (rdb_is_zero(v)) return;
  if (!rdb_is_one(E->sc)) v = rdb_mul(v, E->sc);
  RdbVal* kk = E->kb + (size_t)E->nb * 1;
  kk[0] = E->f[0];
  E->vb[E->nb] = v;
  if (++E->nb == 128) {
    E->api->add_span(E->ctx, 0, E->kb, E->vb, E->nb, 1);
    E->nb = 0;
  }
}
static void rdb_t2_s0_gw_l0(void* ve, const RdbVal* k, RdbNum m) {
  rdb_t2_s0_env* E = (rdb_t2_s0_env*)ve;
  E->f[0] = k[1];
  E->lv[0] = m;
  rdb_t2_s0_gw_body(E);
}
void rdb_t2_s0_gw(const RdbHostApi* api, void* ctx, const RdbColWin* win) {
  rdb_t2_s0_env e;
  e.api = api;
  e.ctx = ctx;
  RdbVal pbuf[3];
  e.p = pbuf;
  RdbVal kb[128];
  RdbNum vb[128];
  e.kb = kb;
  e.vb = vb;
  e.nb = 0;
  const RdbVal* restrict c0 = win->cols[0];
  const RdbVal* restrict c1 = win->cols[1];
  const RdbVal* restrict c2 = win->cols[2];
  const uint32_t* restrict rows = win->rows;
  const RdbNum* restrict scales = win->scales;
  rdb_t2_s0_env* E = &e;
  for (uint32_t i = 0; i < win->n; ++i) {
    const uint32_t r = rows[i];
    pbuf[0] = c0[r];
    pbuf[1] = c1[r];
    pbuf[2] = c2[r];
    e.sc = scales[i];
    RdbVal sk0[1];
    sk0[0] = E->p[0];
    E->api->foreach_matching(E->ctx, 2, 0, sk0, 1, rdb_t2_s0_gw_l0, (void*)E);
  }
  if (e.nb) api->add_span(ctx, 0, kb, vb, e.nb, 1);
}

/* m1[@p0] += param(1) param(2) mul(2) | grouped: const(1) */
static const RdbVal rdb_t2_s1_c[] = {
    {1, 0.0, 0, 0, 0},
};
typedef struct {
  const RdbHostApi* api;
  void* ctx;
  const RdbVal* p;
  RdbNum sc;
  RdbVal f[1];
  RdbNum lv[1];
  RdbVal* kb;
  RdbNum* vb;
  uint32_t nb;
} rdb_t2_s1_env;
void rdb_t2_s1_w(const RdbHostApi* api, void* ctx, const RdbColWin* win) {
  const RdbVal* restrict c0 = win->cols[0];
  const RdbVal* restrict c1 = win->cols[1];
  const RdbVal* restrict c2 = win->cols[2];
  const uint32_t* restrict rows = win->rows;
  const RdbNum* restrict scales = win->scales;
  enum { CHUNK = 128 };
  RdbVal kb[CHUNK * 1];
  RdbNum vb[CHUNK];
  uint32_t nb = 0;
  for (uint32_t i = 0; i < win->n; ++i) {
    const uint32_t r = rows[i];
    RdbNum t0 = rdb_mul(rdb_num(api, ctx, c1[r]), rdb_num(api, ctx, c2[r]));
    RdbNum v = t0;
    if (rdb_is_zero(v)) continue;
    if (!rdb_is_one(scales[i])) v = rdb_mul(v, scales[i]);
    kb[nb * 1 + 0] = c0[r];
    vb[nb] = v;
    if (++nb == CHUNK) {
      api->add_span(ctx, 1, kb, vb, nb, 1);
      nb = 0;
    }
  }
  if (nb) api->add_span(ctx, 1, kb, vb, nb, 1);
}

void rdb_t2_s1_gw(const RdbHostApi* api, void* ctx, const RdbColWin* win) {
  const RdbVal* restrict c0 = win->cols[0];
  const RdbVal* restrict c1 = win->cols[1];
  const RdbVal* restrict c2 = win->cols[2];
  const uint32_t* restrict rows = win->rows;
  const RdbNum* restrict scales = win->scales;
  enum { CHUNK = 128 };
  RdbVal kb[CHUNK * 1];
  RdbNum vb[CHUNK];
  uint32_t nb = 0;
  for (uint32_t i = 0; i < win->n; ++i) {
    const uint32_t r = rows[i];
    RdbNum v = rdb_num(api, ctx, rdb_t2_s1_c[0]);
    if (rdb_is_zero(v)) continue;
    if (!rdb_is_one(scales[i])) v = rdb_mul(v, scales[i]);
    kb[nb * 1 + 0] = c0[r];
    vb[nb] = v;
    if (++nb == CHUNK) {
      api->add_span(ctx, 1, kb, vb, nb, 1);
      nb = 0;
    }
  }
  if (nb) api->add_span(ctx, 1, kb, vb, nb, 1);
}


